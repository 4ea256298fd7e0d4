//! DAG utilities for dataflow jobs.
//!
//! Connected tasks form a directed acyclic graph (§2.1). This module
//! provides the structural machinery: adjacency, Kahn topological
//! ordering (which doubles as the cycle check), level assignment, and a
//! weighted critical path for the scheduler's bounds.

use crate::task::TaskId;

/// Errors from graph validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a task index that does not exist.
    UnknownTask(TaskId),
    /// A self-loop `t → t`.
    SelfLoop(TaskId),
    /// The graph contains a cycle (tasks listed are on it or behind it).
    Cycle(Vec<TaskId>),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownTask(t) => write!(f, "edge references unknown task {t}"),
            GraphError::SelfLoop(t) => write!(f, "self-loop on task {t}"),
            GraphError::Cycle(ts) => write!(f, "cycle involving tasks {ts:?}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable, validated DAG over `n` tasks.
///
/// Adjacency is CSR (offsets + flat lists), not a `Vec` per task, and
/// the whole graph lives in two buffers: a job is built once per request
/// on the serving path, so every allocation here is paid per request.
#[derive(Debug, Clone)]
pub struct Dag {
    n: usize,
    /// Row offsets into `data`, `2n + 2` of them: task `t`'s successors
    /// are `data[at[t]..at[t + 1]]` and its predecessors
    /// `data[at[n + 1 + t]..at[n + 2 + t]]`, each in edge-insertion order.
    at: Vec<u32>,
    /// Every successor row, then every predecessor row, then a
    /// topological order (`data[at[2n + 1]..]`).
    data: Vec<TaskId>,
}

/// Closes the gaps a CSR fill leaves when rows were sized for more
/// entries than they received (`filled[t]` of them): shifts every row
/// down to start at `write` and rewrites `at` (one more entry than
/// `filled`) to the tight offsets. Returns where the rows now end.
fn compact(at: &mut [u32], filled: &[u32], data: &mut [TaskId], mut write: usize) -> usize {
    for (t, &len) in filled.iter().enumerate() {
        let read = at[t] as usize;
        data.copy_within(read..read + len as usize, write);
        at[t] = write as u32;
        write += len as usize;
    }
    at[filled.len()] = write as u32;
    write
}

impl Dag {
    /// Validates edges over `n` tasks and builds the DAG.
    pub fn new(n: usize, edges: &[(TaskId, TaskId)]) -> Result<Dag, GraphError> {
        let e = edges.len();
        // Size each row for every edge naming it, duplicates included...
        let mut at = vec![0u32; 2 * n + 2];
        let (succ_at, pred_at) = at.split_at_mut(n + 1);
        for &(a, b) in edges {
            if a.index() >= n {
                return Err(GraphError::UnknownTask(a));
            }
            if b.index() >= n {
                return Err(GraphError::UnknownTask(b));
            }
            if a == b {
                return Err(GraphError::SelfLoop(a));
            }
            succ_at[a.index() + 1] += 1;
            pred_at[b.index() + 1] += 1;
        }
        pred_at[0] = e as u32;
        for t in 0..n {
            succ_at[t + 1] += succ_at[t];
            pred_at[t + 1] += pred_at[t];
        }
        // ...fill in edge order, skipping an edge its row already holds...
        let mut data = vec![TaskId(0); 2 * e + n];
        let mut deg = vec![0u32; 2 * n];
        let (outdeg, indeg) = deg.split_at_mut(n);
        let mut kept = 0usize;
        for &(a, b) in edges {
            let row = succ_at[a.index()] as usize;
            let len = outdeg[a.index()] as usize;
            if data[row..row + len].contains(&b) {
                continue;
            }
            data[row + len] = b;
            outdeg[a.index()] += 1;
            data[(pred_at[b.index()] + indeg[b.index()]) as usize] = a;
            indeg[b.index()] += 1;
            kept += 1;
        }
        // ...and close the gaps duplicates left, if there were any.
        if kept < e {
            let end = compact(succ_at, outdeg, &mut data, 0);
            compact(pred_at, indeg, &mut data, end);
        }

        // Kahn's algorithm: a full ordering exists iff the graph is
        // acyclic. The FIFO work list *is* the order, written after the
        // rows, and `indeg` is spent as the countdown.
        let topo_at = 2 * kept;
        let mut tail = topo_at;
        for i in (0..n).filter(|&i| indeg[i] == 0) {
            data[tail] = TaskId(i as u32);
            tail += 1;
        }
        let mut head = topo_at;
        while head < tail {
            let t = data[head].index();
            head += 1;
            for k in succ_at[t] as usize..succ_at[t + 1] as usize {
                let s = data[k];
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    data[tail] = s;
                    tail += 1;
                }
            }
        }
        if tail - topo_at != n {
            let stuck: Vec<TaskId> = (0..n)
                .filter(|&i| indeg[i] > 0)
                .map(|i| TaskId(i as u32))
                .collect();
            return Err(GraphError::Cycle(stuck));
        }
        data.truncate(tail);
        Ok(Dag { n, at, data })
    }

    /// Offsets of the successor rows (`n + 1`).
    fn succ_at(&self) -> &[u32] {
        &self.at[..=self.n]
    }

    /// Offsets of the predecessor rows (`n + 1`).
    fn pred_at(&self) -> &[u32] {
        &self.at[self.n + 1..]
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the DAG has no tasks.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Successors of a task.
    pub fn successors(&self, t: TaskId) -> &[TaskId] {
        let at = self.succ_at();
        &self.data[at[t.index()] as usize..at[t.index() + 1] as usize]
    }

    /// Predecessors of a task.
    pub fn predecessors(&self, t: TaskId) -> &[TaskId] {
        let at = self.pred_at();
        &self.data[at[t.index()] as usize..at[t.index() + 1] as usize]
    }

    /// A topological order (stable across runs).
    pub fn topo_order(&self) -> &[TaskId] {
        &self.data[self.at[2 * self.n + 1] as usize..]
    }

    /// Tasks with no predecessors.
    pub fn sources(&self) -> Vec<TaskId> {
        self.frontier().collect()
    }

    /// In-degree (predecessor count) per task, in task-id order.
    ///
    /// This is the seed state for dependency-counting dispatch: an
    /// executor decrements a task's count as each incoming edge is
    /// satisfied and enqueues the task when it reaches zero.
    pub fn indegrees(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.pred_at().windows(2).map(|w| w[1] - w[0])
    }

    /// Iterates the initial ready frontier: tasks with no predecessors,
    /// in task-id order.
    pub fn frontier(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.indegrees()
            .enumerate()
            .filter(|&(_, d)| d == 0)
            .map(|(i, _)| TaskId(i as u32))
    }

    /// Tasks with no successors.
    pub fn sinks(&self) -> Vec<TaskId> {
        (0..self.n)
            .map(|i| TaskId(i as u32))
            .filter(|&t| self.successors(t).is_empty())
            .collect()
    }

    /// Level (longest distance from any source) per task.
    pub fn levels(&self) -> Vec<u32> {
        let mut level = vec![0u32; self.n];
        for &t in self.topo_order() {
            for &s in self.successors(t) {
                level[s.index()] = level[s.index()].max(level[t.index()] + 1);
            }
        }
        level
    }

    /// Critical-path length under per-task weights: the maximum weighted
    /// path from any source to any sink. An empty DAG has weight 0.
    pub fn critical_path(&self, weight: impl Fn(TaskId) -> f64) -> f64 {
        let mut best = vec![0.0f64; self.n];
        let mut max = 0.0f64;
        for &t in self.topo_order() {
            let w = best[t.index()] + weight(t);
            max = max.max(w);
            for &s in self.successors(t) {
                if w > best[s.index()] {
                    best[s.index()] = w;
                }
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    #[test]
    fn diamond_orders_correctly() {
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3.
        let dag = Dag::new(4, &[(t(0), t(1)), (t(0), t(2)), (t(1), t(3)), (t(2), t(3))]).unwrap();
        let topo = dag.topo_order();
        let pos = |x: TaskId| topo.iter().position(|&y| y == x).unwrap();
        assert!(pos(t(0)) < pos(t(1)));
        assert!(pos(t(0)) < pos(t(2)));
        assert!(pos(t(1)) < pos(t(3)));
        assert!(pos(t(2)) < pos(t(3)));
        assert_eq!(dag.sources(), vec![t(0)]);
        assert_eq!(dag.sinks(), vec![t(3)]);
    }

    #[test]
    fn cycle_is_rejected() {
        let err = Dag::new(3, &[(t(0), t(1)), (t(1), t(2)), (t(2), t(0))]).unwrap_err();
        assert!(matches!(err, GraphError::Cycle(_)));
    }

    #[test]
    fn self_loop_is_rejected() {
        assert_eq!(
            Dag::new(2, &[(t(1), t(1))]).unwrap_err(),
            GraphError::SelfLoop(t(1))
        );
    }

    #[test]
    fn unknown_task_is_rejected() {
        assert_eq!(
            Dag::new(2, &[(t(0), t(5))]).unwrap_err(),
            GraphError::UnknownTask(t(5))
        );
    }

    #[test]
    fn duplicate_edges_collapse() {
        let dag = Dag::new(2, &[(t(0), t(1)), (t(0), t(1))]).unwrap();
        assert_eq!(dag.successors(t(0)), &[t(1)]);
        assert_eq!(dag.predecessors(t(1)), &[t(0)]);
    }

    #[test]
    fn disconnected_tasks_are_fine() {
        let dag = Dag::new(3, &[]).unwrap();
        assert_eq!(dag.sources().len(), 3);
        assert_eq!(dag.sinks().len(), 3);
        assert_eq!(dag.levels(), vec![0, 0, 0]);
    }

    #[test]
    fn levels_reflect_longest_path() {
        // 0 → 1 → 3 and 0 → 3: task 3 is at level 2 (via 1).
        let dag = Dag::new(4, &[(t(0), t(1)), (t(1), t(3)), (t(0), t(3)), (t(0), t(2))]).unwrap();
        assert_eq!(dag.levels(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn critical_path_takes_heaviest_route() {
        // 0 → 1 → 3 (weights 1+10+1) vs 0 → 2 → 3 (1+2+1).
        let dag = Dag::new(4, &[(t(0), t(1)), (t(0), t(2)), (t(1), t(3)), (t(2), t(3))]).unwrap();
        let w = |x: TaskId| match x.0 {
            1 => 10.0,
            2 => 2.0,
            _ => 1.0,
        };
        assert_eq!(dag.critical_path(w), 12.0);
    }

    #[test]
    fn indegrees_and_frontier_match_edges() {
        let dag = Dag::new(4, &[(t(0), t(1)), (t(0), t(2)), (t(1), t(3)), (t(2), t(3))]).unwrap();
        assert_eq!(dag.indegrees().collect::<Vec<_>>(), vec![0, 1, 1, 2]);
        assert_eq!(dag.frontier().collect::<Vec<_>>(), vec![t(0)]);
    }

    /// The adjacency-list construction the CSR arrays replaced, kept as
    /// the oracle: `(successors, predecessors, topological order)`.
    #[allow(clippy::type_complexity)]
    fn reference(
        n: usize,
        edges: &[(TaskId, TaskId)],
    ) -> (Vec<Vec<TaskId>>, Vec<Vec<TaskId>>, Vec<TaskId>) {
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for &(a, b) in edges {
            if !succ[a.index()].contains(&b) {
                succ[a.index()].push(b);
                pred[b.index()].push(a);
            }
        }
        let mut indeg: Vec<usize> = pred.iter().map(Vec::len).collect();
        let mut queue: Vec<TaskId> = (0..n).filter(|&i| indeg[i] == 0).map(|i| t(i as u32)).collect();
        let mut topo = Vec::new();
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            topo.push(x);
            for &s in &succ[x.index()] {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
        (succ, pred, topo)
    }

    #[test]
    fn csr_matches_adjacency_lists_on_random_dags_with_duplicate_edges() {
        use disagg_hwsim::rng::SimRng;
        for seed in [1u64, 2, 3, 23] {
            let mut rng = SimRng::new(seed);
            for round in 0..60 {
                let n = 1 + rng.next_below(40) as usize;
                let mut edges = Vec::new();
                for _ in 0..rng.next_below(4 * n as u64) {
                    // Forward edges only, so the graph is acyclic.
                    let a = rng.next_below(n as u64) as u32;
                    let b = rng.next_below(n as u64) as u32;
                    if a != b {
                        edges.push((t(a.min(b)), t(a.max(b))));
                    }
                    // Repeat an earlier edge now and then, anywhere in
                    // the list.
                    if !edges.is_empty() && rng.chance(0.3) {
                        edges.push(*rng.pick(&edges));
                    }
                }
                let dag = Dag::new(n, &edges).unwrap();
                let (succ, pred, topo) = reference(n, &edges);
                let mut level = vec![0u32; n];
                for &x in &topo {
                    for &s in &succ[x.index()] {
                        level[s.index()] = level[s.index()].max(level[x.index()] + 1);
                    }
                }
                let what = format!("seed {seed} round {round}");
                for i in 0..n {
                    assert_eq!(dag.successors(t(i as u32)), &succ[i][..], "{what}: succ {i}");
                    assert_eq!(dag.predecessors(t(i as u32)), &pred[i][..], "{what}: pred {i}");
                }
                assert_eq!(dag.topo_order(), &topo[..], "{what}");
                assert_eq!(dag.levels(), level, "{what}");
                assert_eq!(
                    dag.indegrees().collect::<Vec<_>>(),
                    pred.iter().map(|p| p.len() as u32).collect::<Vec<_>>(),
                    "{what}"
                );
                assert_eq!(
                    dag.frontier().collect::<Vec<_>>(),
                    (0..n).filter(|&i| pred[i].is_empty()).map(|i| t(i as u32)).collect::<Vec<_>>(),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn empty_dag_is_valid() {
        let dag = Dag::new(0, &[]).unwrap();
        assert!(dag.is_empty());
        assert_eq!(dag.critical_path(|_| 1.0), 0.0);
    }
}
