//! Host-side process counters from `/proc` (Linux only, no libc): CPU
//! time split into user and system, minor page faults, and peak RSS.
//! They tell kernel time apart from simulator work — `serve_bulk` spends
//! most of its wall clock in page faults, not in the event loop.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI the
/// benchmark runs on; reading it properly would need `sysconf`.
const TICKS_PER_SEC: f64 = 100.0;

/// A snapshot of the counters the benchmark differences across passes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcStat {
    /// Minor page faults so far.
    pub minflt: u64,
    /// User-mode CPU seconds so far.
    pub utime_s: f64,
    /// Kernel-mode CPU seconds so far.
    pub stime_s: f64,
}

impl ProcStat {
    /// Reads `/proc/self/stat`.
    pub fn now() -> Result<ProcStat, String> {
        let text =
            fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
        parse_stat(&text)
    }
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) is
/// parenthesised and may itself hold spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Result<ProcStat, String> {
    let rest = text
        .rfind(')')
        .map(|i| &text[i + 1..])
        .ok_or("stat line has no command field")?;
    // `rest` starts at field 3 (state): minflt is field 10, utime 14,
    // stime 15.
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let field = |n: usize| -> Result<u64, String> {
        fields
            .get(n - 3)
            .ok_or(format!("stat line has no field {n}"))?
            .parse::<u64>()
            .map_err(|e| format!("stat field {n}: {e}"))
    };
    Ok(ProcStat {
        minflt: field(10)?,
        utime_s: field(14)? as f64 / TICKS_PER_SEC,
        stime_s: field(15)? as f64 / TICKS_PER_SEC,
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let text =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&text).map(|kib| kib as f64 / 1024.0)
}

/// Extracts `VmHWM` (in kB, i.e. KiB) from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kib(text: &str) -> Result<u64, String> {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("status has no VmHWM line")?;
    let mut parts = line.split_ascii_whitespace();
    let value = parts.next().ok_or("VmHWM line is empty")?;
    if parts.next() != Some("kB") {
        return Err(format!("VmHWM not in kB: '{}'", line.trim()));
    }
    value
        .parse::<u64>()
        .map_err(|e| format!("VmHWM value: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_last_paren() {
        // A hostile command name: spaces and a ')' inside the parens.
        let line = "4242 (evil) name) R 1 4242 4242 0 -1 4194304 1234 0 5 0 \
                    250 75 0 0 20 0 1 0 100 1000000 200 18446744073709551615";
        let s = parse_stat(line).unwrap();
        assert_eq!(s.minflt, 1234);
        assert_eq!(s.utime_s, 2.5);
        assert_eq!(s.stime_s, 0.75);
    }

    #[test]
    fn short_or_garbled_stat_lines_are_errors() {
        assert!(parse_stat("1 (x) R 1 2 3").is_err());
        assert!(parse_stat("no parens at all").is_err());
        assert!(parse_stat("1 (x) R 1 1 1 0 -1 0 many 0 0 0 1 1").is_err());
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t  524288 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status).unwrap(), 524_288);
        assert!(parse_vm_hwm_kib("Name:\tbench\n").is_err());
        assert!(parse_vm_hwm_kib("VmHWM:\t12 MB\n").is_err());
    }

    #[test]
    fn live_proc_files_parse() {
        let s = ProcStat::now().unwrap();
        assert!(
            s.minflt > 0,
            "a running process has faulted its own pages in"
        );
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
