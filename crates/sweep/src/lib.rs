//! Parallel design-space exploration over AccALS flows.
//!
//! A single AccALS run answers one question: "how small does this
//! circuit get under *this* metric at *this* bound?" The evaluations
//! that matter — the paper's Fig. 5 error sweep and Fig. 7 quality
//! curves, or any deployment picking an operating point — ask many such
//! questions at once, over a grid of `(metric, error_bound, seed)`
//! points. Run naively, every grid point pays full pattern simulation,
//! candidate generation, mask building, and scoring from scratch, even
//! though instances that differ only in their bound traverse *identical
//! circuit prefixes* for most of their rounds (a tighter bound's
//! trajectory is typically a prefix of a looser one's).
//!
//! This crate batches the grid into one job:
//!
//! - **Shared read-only state.** All instances over the same circuit
//!   and pattern shape share one [`Patterns`] set and one golden
//!   simulation ([`FlowInstance::with_shared`]).
//! - **Cohort execution with cache forking.** Instances of one *family*
//!   (equal configuration except the bound, [`AccalsConfig::family_eq`])
//!   start as one cohort: each round's bound-independent phases —
//!   simulation, evaluator rebase, candidate generation, mask building,
//!   scoring — run once per cohort ([`accals::step_cohort`]), and only
//!   the bound-dependent selection/trial/commit runs per member, with
//!   trial and commit results memoized across members. When members
//!   commit different edits, the shared [`FlowCaches`] are forked at the
//!   divergence round and the cohort splits into branches.
//! - **One task stack.** Cohort rounds are tasks on one locked LIFO
//!   stack that every sweep worker pops from; a round pushes its
//!   successors, and idle workers wait on a condition variable until a
//!   task arrives or the job is over. Intra-flow parallel phases keep
//!   their `parkit` pool: when the job has fewer instances than
//!   threads, the spare threads are handed to the instances' own pools
//!   instead.
//! - **A merged Pareto front.** Finished instances stream into a
//!   deduplicated, dominance-checked [`ParetoFront`] per
//!   `(circuit, metric)` — minimizing `(area, error)` — surfaced
//!   incrementally through the [`SweepEvent`] callback and returned in
//!   [`SweepResult::fronts`].
//!
//! # Determinism contract
//!
//! Every instance's trajectory (its [`RoundTrace`] sequence), final
//! circuit, and final error are **bit-identical** to running that
//! instance alone through [`accals::Accals`], at any worker count, any
//! schedule, and with cache sharing on or off. Only wall-clock,
//! the diagnostic `shared_rounds` counter, and the *arrival order* of
//! streamed events vary with the schedule; [`SweepResult`] itself is
//! deterministic (instances come back in submission order, and
//! [`ParetoFront`] is insertion-order independent).
//!
//! # Example
//!
//! ```
//! use accals::AccalsConfig;
//! use errmetrics::MetricKind;
//! use sweep::{SweepJob, SweepOptions};
//!
//! let golden = benchgen::multipliers::array_multiplier(4);
//! let mut job = SweepJob::new();
//! let c = job.add_circuit(golden);
//! let base = AccalsConfig::new(MetricKind::Er, 0.05);
//! job.add_grid(c, &base, &[0.02, 0.05, 0.1]);
//! let result = sweep::run(&job, &SweepOptions::default());
//! let front = result.front(c, MetricKind::Er).expect("front exists");
//! assert!(!front.points().is_empty());
//! ```

use accals::{AccalsConfig, FlowCaches, FlowInstance, RoundTrace, SynthesisResult};
use aig::Aig;
use bitsim::{simulate, Patterns};
use errmetrics::MetricKind;
use parkit::ThreadPool;
use stack::TaskStack;
use std::collections::HashMap;
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

mod stack;

/// Environment variable controlling the sweep worker count, the
/// instance-level analogue of `ACCALS_THREADS` (which sizes the
/// intra-flow pools). Unset or invalid falls back to
/// [`parkit::configured_threads`].
pub const SWEEP_THREADS_ENV: &str = "ACCALS_SWEEP_THREADS";

/// The worker count a default-configured sweep uses:
/// `ACCALS_SWEEP_THREADS` if set to a positive integer, otherwise
/// whatever [`parkit::configured_threads`] reports. Malformed values
/// warn on stderr and fall back (see [`parkit::parse_thread_env`]).
pub fn configured_sweep_threads() -> usize {
    parkit::parse_thread_env(
        SWEEP_THREADS_ENV,
        std::env::var(SWEEP_THREADS_ENV).ok().as_deref(),
        parkit::configured_threads(),
    )
}

/// The process-wide serial pool handed to instances when every thread
/// is already spent at the instance level. A 1-thread `parkit` pool
/// runs everything inline on the calling thread, so one shared pool is
/// safe across concurrently stepping sweep workers.
fn serial_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::new(1))
}

/// Cached multi-thread pools for intra-flow parallelism, keyed by
/// `(threads, slot)` so repeated sweeps reuse the same OS threads
/// instead of leaking a fresh pool per run. Distinct slots keep
/// concurrently running cohorts off each other's submit lock.
fn cached_pool(threads: usize, slot: usize) -> &'static ThreadPool {
    if threads <= 1 {
        return serial_pool();
    }
    static POOLS: OnceLock<Mutex<HashMap<(usize, usize), &'static ThreadPool>>> = OnceLock::new();
    let mut map = POOLS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    map.entry((threads, slot))
        .or_insert_with(|| &*Box::leak(Box::new(ThreadPool::new(threads))))
}

/// Handle to a circuit registered with a [`SweepJob`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CircuitId(usize);

impl CircuitId {
    /// The circuit's index in registration order.
    pub fn index(self) -> usize {
        self.0
    }
}

struct InstanceSpec {
    circuit: usize,
    cfg: AccalsConfig,
}

/// A batch of flow instances to explore: circuits plus
/// `(metric, error_bound, seed)` points over them.
#[derive(Default)]
pub struct SweepJob {
    circuits: Vec<Aig>,
    specs: Vec<InstanceSpec>,
}

impl SweepJob {
    /// An empty job.
    pub fn new() -> Self {
        SweepJob::default()
    }

    /// Registers a golden circuit and returns its handle.
    pub fn add_circuit(&mut self, golden: Aig) -> CircuitId {
        self.circuits.push(golden);
        CircuitId(self.circuits.len() - 1)
    }

    /// Adds one flow instance over `circuit` and returns its id.
    /// Instance ids are dense and index [`SweepResult::instances`].
    ///
    /// # Panics
    ///
    /// Panics if `circuit` was not registered with this job. The
    /// configuration is not checked here: [`run`] panics on an
    /// out-of-range parameter (the checks of [`accals::Accals::new`]),
    /// on a circuit without outputs, and on an arithmetic metric over
    /// more than 128 outputs.
    pub fn add_instance(&mut self, circuit: CircuitId, cfg: AccalsConfig) -> usize {
        assert!(circuit.0 < self.circuits.len(), "unknown circuit");
        self.specs.push(InstanceSpec {
            circuit: circuit.0,
            cfg,
        });
        self.specs.len() - 1
    }

    /// Adds one instance per bound, cloning `base` with the bound
    /// swapped in — the common "nested bounds of one family" shape
    /// whose shared prefixes the cohort engine exploits. Returns the
    /// new instance ids.
    pub fn add_grid(
        &mut self,
        circuit: CircuitId,
        base: &AccalsConfig,
        bounds: &[f64],
    ) -> Vec<usize> {
        bounds
            .iter()
            .map(|&b| {
                let mut cfg = base.clone();
                cfg.error_bound = b;
                self.add_instance(circuit, cfg)
            })
            .collect()
    }

    /// Number of instances queued.
    pub fn n_instances(&self) -> usize {
        self.specs.len()
    }
}

/// Options controlling how a [`SweepJob`] executes. Apart from the
/// `stale_fork` fault hook, none of them affect per-instance results —
/// only wall-clock and diagnostics.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Sweep worker threads; `0` means [`configured_sweep_threads`].
    pub threads: usize,
    /// Share caches between same-family instances via cohort execution.
    /// Off, every instance runs standalone (still sharing the read-only
    /// golden simulation, which is a pure function of the circuit).
    pub share: bool,
    /// No longer affects anything: the sweep schedules its cohorts on
    /// one shared task stack, which makes no random choices. Kept so
    /// that existing struct literals still compile.
    pub steal_seed: u64,
    /// Fault injection for the fuzz harness: fork diverging cohorts one
    /// round too late (see [`accals::step_cohort_faulted`]). Breaks the
    /// determinism contract by design. Never enable outside tests.
    #[doc(hidden)]
    pub stale_fork: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: 0,
            share: true,
            steal_seed: 0x5eed_5eed,
            stale_fork: false,
        }
    }
}

/// Progress events streamed to the [`run_traced`] callback, the sweep
/// analogue of [`RoundTrace`]. Arrival order is schedule-dependent;
/// the data carried by each event is not.
#[derive(Debug, Clone)]
pub enum SweepEvent {
    /// An instance completed a round (inside a cohort of `cohort_size`
    /// members — 1 means it ran the round alone).
    Round {
        instance: usize,
        round: usize,
        e_after: f64,
        n_ands: usize,
        cohort_size: usize,
    },
    /// An instance converged.
    InstanceDone {
        instance: usize,
        area: usize,
        error: f64,
        rounds: usize,
    },
    /// A finished instance entered the current Pareto front of its
    /// `(circuit, metric)` group. A later instance may still dominate
    /// it; [`SweepResult::fronts`] holds the settled fronts.
    FrontPoint {
        circuit: CircuitId,
        metric: MetricKind,
        instance: usize,
        area: usize,
        error: f64,
    },
}

/// One settled point on a Pareto front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// The instance that produced the point. For exact `(area, error)`
    /// ties, the smallest instance id represents the point.
    pub instance: usize,
    /// Final AND-gate count.
    pub area: usize,
    /// Final measured error.
    pub error: f64,
}

/// Whether `p` Pareto-dominates `q` (both coordinates no worse, at
/// least one strictly better; both minimized).
fn dominates(p: &ParetoPoint, q: &ParetoPoint) -> bool {
    p.area <= q.area && p.error <= q.error && (p.area < q.area || p.error < q.error)
}

/// A mutually non-dominated set of `(area, error)` points, both
/// minimized. Maintained sorted by ascending area (so error strictly
/// descends); duplicates collapse to the smallest instance id. The
/// settled front is independent of insertion order.
#[derive(Debug, Clone, Default)]
pub struct ParetoFront {
    points: Vec<ParetoPoint>,
}

impl ParetoFront {
    /// An empty front.
    pub fn new() -> Self {
        ParetoFront::default()
    }

    /// Offers a point. Returns whether the current front changed —
    /// the point entered it (possibly evicting dominated points) or
    /// took over representation of an exact coordinate tie.
    ///
    /// # Panics
    ///
    /// Panics if `error` is NaN (errors are measured, never NaN).
    pub fn insert(&mut self, p: ParetoPoint) -> bool {
        assert!(!p.error.is_nan(), "front errors must be comparable");
        if let Some(q) = self
            .points
            .iter_mut()
            .find(|q| q.area == p.area && q.error.to_bits() == p.error.to_bits())
        {
            // Exact coordinate tie: the smallest instance id represents
            // the point, making the front insertion-order independent.
            if p.instance < q.instance {
                q.instance = p.instance;
                return true;
            }
            return false;
        }
        if self.points.iter().any(|q| dominates(q, &p)) {
            return false;
        }
        self.points.retain(|q| !dominates(&p, q));
        // Surviving points have pairwise distinct areas (equal areas
        // with different errors dominate one way), so area alone orders
        // the front.
        let at = self.points.partition_point(|q| q.area < p.area);
        self.points.insert(at, p);
        true
    }

    /// The front, sorted by ascending area (descending error).
    pub fn points(&self) -> &[ParetoPoint] {
        &self.points
    }

    /// Number of points on the front.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// The per-round trajectory key: what a round did to the circuit.
/// Two flows whose rounds agree on these keys are on the same branch
/// of the search tree — everything downstream (caches included) is a
/// pure function of them.
fn round_key(t: &RoundTrace) -> (usize, u64, usize) {
    (t.applied, t.e_after.to_bits(), t.n_ands_after)
}

/// A 64-bit digest of a trajectory (FNV-1a over each round's key
/// `(applied, e_after bits, n_ands_after)`). Equal hashes across a batched and a standalone run
/// of the same instance certify trajectory identity cheaply.
pub fn trajectory_hash(rounds: &[RoundTrace]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for t in rounds {
        let (applied, e_bits, ands) = round_key(t);
        mix(applied as u64);
        mix(e_bits);
        mix(ands as u64);
    }
    h
}

/// The first round at which two trajectories diverge: the first index
/// whose round keys (as in [`trajectory_hash`]) differ, or the shorter length when one
/// trajectory is a strict prefix of the other (the short flow stopped
/// while the long one kept going — that *is* the divergence). `None`
/// means the trajectories are identical.
pub fn divergence_round(a: &[RoundTrace], b: &[RoundTrace]) -> Option<usize> {
    let common = a.len().min(b.len());
    for i in 0..common {
        if round_key(&a[i]) != round_key(&b[i]) {
            return Some(i);
        }
    }
    if a.len() != b.len() {
        Some(common)
    } else {
        None
    }
}

/// One instance's outcome inside a [`SweepResult`].
#[derive(Debug)]
pub struct InstanceResult {
    /// The instance id ([`SweepJob::add_instance`] order).
    pub instance: usize,
    /// The circuit the instance ran over.
    pub circuit: CircuitId,
    /// The instance's error metric.
    pub metric: MetricKind,
    /// The instance's error bound.
    pub error_bound: f64,
    /// The instance's seed.
    pub seed: u64,
    /// The full synthesis result — bit-identical to a standalone run.
    pub result: SynthesisResult,
    /// [`trajectory_hash`] of `result.rounds`.
    pub trajectory_hash: u64,
    /// Rounds this instance executed inside a cohort of two or more
    /// members, i.e. rounds whose heavy phases it shared. Diagnostic;
    /// schedule-independent under a fixed job but not part of the
    /// identity contract.
    pub shared_rounds: usize,
}

/// A per-`(circuit, metric)` Pareto front of the finished instances.
#[derive(Debug)]
pub struct FrontEntry {
    /// The circuit the front is over.
    pub circuit: CircuitId,
    /// The error metric of the front's instances.
    pub metric: MetricKind,
    /// The settled front.
    pub front: ParetoFront,
}

/// The outcome of a sweep: every instance's result (in submission
/// order) plus the merged Pareto fronts.
#[derive(Debug)]
pub struct SweepResult {
    /// Per-instance results, indexed by instance id.
    pub instances: Vec<InstanceResult>,
    /// Merged fronts, one per `(circuit, metric)` pair in first-use
    /// order.
    pub fronts: Vec<FrontEntry>,
    /// Wall-clock for the whole batch.
    pub wall: Duration,
}

impl SweepResult {
    /// The front for `(circuit, metric)`, if any instance targeted it.
    pub fn front(&self, circuit: CircuitId, metric: MetricKind) -> Option<&ParetoFront> {
        self.fronts
            .iter()
            .find(|f| f.circuit == circuit && f.metric == metric)
            .map(|f| &f.front)
    }
}

/// One schedulable unit: a cohort of same-family instances whose
/// trajectories are still identical, plus the caches they share.
struct CohortTask {
    ids: Vec<usize>,
    flows: Vec<FlowInstance>,
    shared_rounds: Vec<usize>,
    caches: FlowCaches,
}

/// Runs the job and returns when every instance has converged.
pub fn run(job: &SweepJob, opts: &SweepOptions) -> SweepResult {
    run_traced(job, opts, &mut |_| {})
}

/// Like [`run`], but streams [`SweepEvent`]s to `trace` as the batch
/// progresses. The callback runs on the calling thread.
pub fn run_traced(
    job: &SweepJob,
    opts: &SweepOptions,
    trace: &mut dyn FnMut(SweepEvent),
) -> SweepResult {
    let t0 = Instant::now();
    let n = job.specs.len();
    let threads = if opts.threads == 0 {
        configured_sweep_threads()
    } else {
        opts.threads
    };

    // Group instances into initial cohorts: same circuit, same family
    // (everything but the bound equal — which implies one pattern set).
    // Sharing off, every instance is its own singleton cohort.
    let mut cohorts: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        let spec = &job.specs[i];
        let joinable = opts.share.then(|| {
            cohorts.iter_mut().find(|c| {
                let s0 = &job.specs[c[0]];
                s0.circuit == spec.circuit && s0.cfg.family_eq(&spec.cfg)
            })
        });
        match joinable.flatten() {
            Some(c) => c.push(i),
            None => cohorts.push(vec![i]),
        }
    }

    // Thread budget: instance-level workers first, leftover threads to
    // the instances' own parkit pools (one big flow on a 4-thread box
    // gets a 4-thread pool; 16 small flows get 4 workers × serial).
    let workers = threads.min(n).max(1);
    let inner = (threads / workers).max(1);

    // Shared read-only state: one pattern set and one golden simulation
    // per (circuit, pattern shape).
    type PatKey = (usize, usize, usize, u64);
    type SharedSim = (Arc<Patterns>, Arc<Vec<Vec<u64>>>);
    let mut pat_cache: HashMap<PatKey, SharedSim> = HashMap::new();
    let mut tasks: Vec<CohortTask> = Vec::new();
    for (ci, members) in cohorts.iter().enumerate() {
        let pool = cached_pool(inner, ci % workers);
        let mut flows = Vec::with_capacity(members.len());
        for &i in members {
            let spec = &job.specs[i];
            let g = &job.circuits[spec.circuit];
            let key = (
                spec.circuit,
                spec.cfg.max_exhaustive,
                spec.cfg.n_random_patterns,
                spec.cfg.seed,
            );
            let (pats, sigs) = pat_cache.entry(key).or_insert_with(|| {
                let p = Arc::new(Patterns::for_circuit(
                    g.n_pis(),
                    spec.cfg.max_exhaustive,
                    spec.cfg.n_random_patterns,
                    spec.cfg.seed,
                ));
                let sigs = Arc::new(simulate(g, &p).output_sigs(g));
                (p, sigs)
            });
            flows.push(FlowInstance::with_shared(
                spec.cfg.clone(),
                pool,
                g,
                pats.clone(),
                sigs.clone(),
            ));
        }
        let caches = flows[0].caches();
        tasks.push(CohortTask {
            ids: members.clone(),
            flows,
            shared_rounds: vec![0; members.len()],
            caches,
        });
    }

    // Pre-register the (circuit, metric) fronts in first-use order so
    // the result layout is schedule-independent.
    let mut front_keys: Vec<(usize, MetricKind)> = Vec::new();
    for spec in &job.specs {
        let k = (spec.circuit, spec.cfg.metric);
        if !front_keys.contains(&k) {
            front_keys.push(k);
        }
    }
    let mut fronts: Vec<ParetoFront> = vec![ParetoFront::new(); front_keys.len()];

    let results: Mutex<Vec<Option<(SynthesisResult, usize)>>> =
        Mutex::new((0..n).map(|_| None).collect());
    let stack = TaskStack::new();
    for t in tasks {
        stack.push(t);
    }
    let (tx, rx) = mpsc::channel::<SweepEvent>();
    let stale_fork = opts.stale_fork;
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (stack, results) = (&stack, &results);
            s.spawn(move || {
                stack.work(|task| process_cohort(task, stack, &tx, results, stale_fork));
            });
        }
        drop(tx);
        // The calling thread owns the event stream: it relays worker
        // events to the callback and folds finished instances into the
        // incremental fronts.
        for ev in rx {
            if let SweepEvent::InstanceDone {
                instance,
                area,
                error,
                ..
            } = ev
            {
                let spec = &job.specs[instance];
                let ki = front_keys
                    .iter()
                    .position(|&k| k == (spec.circuit, spec.cfg.metric))
                    .expect("front pre-registered");
                trace(ev);
                if fronts[ki].insert(ParetoPoint {
                    instance,
                    area,
                    error,
                }) {
                    trace(SweepEvent::FrontPoint {
                        circuit: CircuitId(spec.circuit),
                        metric: spec.cfg.metric,
                        instance,
                        area,
                        error,
                    });
                }
            } else {
                trace(ev);
            }
        }
    });

    let instances = results
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let (result, shared_rounds) = slot.expect("every instance runs to completion");
            let spec = &job.specs[i];
            InstanceResult {
                instance: i,
                circuit: CircuitId(spec.circuit),
                metric: spec.cfg.metric,
                error_bound: spec.cfg.error_bound,
                seed: spec.cfg.seed,
                trajectory_hash: trajectory_hash(&result.rounds),
                shared_rounds,
                result,
            }
        })
        .collect();
    let fronts = front_keys
        .into_iter()
        .zip(fronts)
        .map(|((c, m), front)| FrontEntry {
            circuit: CircuitId(c),
            metric: m,
            front,
        })
        .collect();
    SweepResult {
        instances,
        fronts,
        wall: t0.elapsed(),
    }
}

/// Executes one cohort round: advance every member, report finished
/// members, and re-queue the surviving branches (with forked caches
/// where the cohort split).
fn process_cohort(
    mut task: CohortTask,
    stack: &TaskStack<CohortTask>,
    tx: &Sender<SweepEvent>,
    results: &Mutex<Vec<Option<(SynthesisResult, usize)>>>,
    stale_fork: bool,
) {
    let cohort_size = task.flows.len();
    let before: Vec<usize> = task.flows.iter().map(|f| f.round()).collect();
    let splits = if stale_fork {
        accals::step_cohort_faulted(&mut task.flows, &mut task.caches, true)
    } else {
        accals::step_cohort(&mut task.flows, &mut task.caches)
    };
    for (i, f) in task.flows.iter().enumerate() {
        if f.round() > before[i] {
            if cohort_size >= 2 {
                task.shared_rounds[i] += 1;
            }
            if let Some(t) = f.rounds().last() {
                // A dropped receiver just means the sweep is shutting
                // down; results still land through the mutex.
                let _ = tx.send(SweepEvent::Round {
                    instance: task.ids[i],
                    round: t.round,
                    e_after: t.e_after,
                    n_ands: t.n_ands_after,
                    cohort_size,
                });
            }
        }
    }
    let mut continuing = vec![false; task.flows.len()];
    for split in &splits {
        for &m in &split.members {
            continuing[m] = true;
        }
    }
    let mut flows: Vec<Option<FlowInstance>> = task.flows.into_iter().map(Some).collect();
    for (i, slot) in flows.iter_mut().enumerate() {
        if !continuing[i] {
            let f = slot.take().expect("member not yet consumed");
            debug_assert!(f.is_finished(), "non-continuing members are finished");
            let result = f.into_result();
            let _ = tx.send(SweepEvent::InstanceDone {
                instance: task.ids[i],
                area: result.aig.n_ands(),
                error: result.error,
                rounds: result.rounds.len(),
            });
            results.lock().unwrap_or_else(|e| e.into_inner())[task.ids[i]] =
                Some((result, task.shared_rounds[i]));
        }
    }
    let mut kept_caches = Some(task.caches);
    for split in splits {
        let caches = match split.caches {
            Some(c) => c,
            None => kept_caches
                .take()
                .expect("exactly one branch keeps the cohort caches"),
        };
        let mut ids = Vec::with_capacity(split.members.len());
        let mut branch_flows = Vec::with_capacity(split.members.len());
        let mut shared_rounds = Vec::with_capacity(split.members.len());
        for &m in &split.members {
            ids.push(task.ids[m]);
            branch_flows.push(flows[m].take().expect("continuing member present"));
            shared_rounds.push(task.shared_rounds[m]);
        }
        stack.push(CohortTask {
            ids,
            flows: branch_flows,
            shared_rounds,
            caches,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(instance: usize, area: usize, error: f64) -> ParetoPoint {
        ParetoPoint {
            instance,
            area,
            error,
        }
    }

    #[test]
    fn front_keeps_only_non_dominated_points() {
        let mut f = ParetoFront::new();
        assert!(f.insert(pt(0, 10, 0.5)));
        assert!(f.insert(pt(1, 5, 0.9)));
        // Dominated by instance 0 on both axes.
        assert!(!f.insert(pt(2, 12, 0.6)));
        // Dominates instance 0: evicts it.
        assert!(f.insert(pt(3, 9, 0.4)));
        let areas: Vec<usize> = f.points().iter().map(|p| p.area).collect();
        assert_eq!(areas, [5, 9]);
        // Sorted by area, error strictly descending.
        assert!(f.points()[0].error > f.points()[1].error);
    }

    #[test]
    fn front_ties_resolve_to_smallest_instance() {
        let mut f = ParetoFront::new();
        assert!(f.insert(pt(7, 10, 0.5)));
        assert!(f.insert(pt(3, 10, 0.5)));
        assert!(!f.insert(pt(5, 10, 0.5)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].instance, 3);
    }

    #[test]
    fn front_equal_area_different_error_dominates() {
        let mut f = ParetoFront::new();
        assert!(f.insert(pt(0, 10, 0.5)));
        assert!(f.insert(pt(1, 10, 0.4)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].instance, 1);
    }

    fn rt(applied: usize, e_after: f64, n_ands: usize) -> RoundTrace {
        RoundTrace {
            applied,
            e_after,
            n_ands_after: n_ands,
            ..RoundTrace::default()
        }
    }

    #[test]
    fn divergence_round_finds_first_difference() {
        let a = vec![rt(1, 0.1, 30), rt(2, 0.2, 28), rt(1, 0.3, 27)];
        let mut b = a.clone();
        assert_eq!(divergence_round(&a, &b), None);
        assert_eq!(trajectory_hash(&a), trajectory_hash(&b));
        b[1] = rt(3, 0.2, 28);
        assert_eq!(divergence_round(&a, &b), Some(1));
        assert_ne!(trajectory_hash(&a), trajectory_hash(&b));
        // Strict prefix: divergence at the shorter length.
        let c = a[..2].to_vec();
        assert_eq!(divergence_round(&a, &c), Some(2));
        assert_eq!(divergence_round(&c, &a), Some(2));
        // Timings are not part of the trajectory key.
        let mut d = a.clone();
        d[0].candgen_ms = 99.0;
        d[2].select_ms = 1.0;
        assert_eq!(divergence_round(&a, &d), None);
        assert_eq!(trajectory_hash(&a), trajectory_hash(&d));
    }

    #[test]
    fn sweep_threads_env_parses_like_accals_threads() {
        // Without the env var the fallback is parkit's configuration;
        // both are positive.
        assert!(configured_sweep_threads() >= 1);
    }

    #[test]
    fn tiny_sweep_matches_standalone() {
        use accals::{Accals, SizeParam};
        let golden = benchgen::multipliers::array_multiplier(3);
        let mut base = AccalsConfig::new(MetricKind::Er, 0.05);
        base.r_ref = SizeParam::Fixed(20);
        base.r_sel = SizeParam::Fixed(4);
        let bounds = [0.02, 0.05, 0.1];
        let mut job = SweepJob::new();
        let c = job.add_circuit(golden.clone());
        job.add_grid(c, &base, &bounds);
        for share in [true, false] {
            let opts = SweepOptions {
                threads: 2,
                share,
                ..SweepOptions::default()
            };
            let res = run(&job, &opts);
            assert_eq!(res.instances.len(), bounds.len());
            for (i, &b) in bounds.iter().enumerate() {
                let mut cfg = base.clone();
                cfg.error_bound = b;
                let alone = Accals::new(cfg).synthesize(&golden);
                let batched = &res.instances[i];
                assert_eq!(batched.error_bound, b);
                assert_eq!(
                    batched.result.error.to_bits(),
                    alone.error.to_bits(),
                    "share={share} bound={b}: error diverged"
                );
                assert_eq!(batched.result.aig.n_ands(), alone.aig.n_ands());
                assert_eq!(
                    batched.trajectory_hash,
                    trajectory_hash(&alone.rounds),
                    "share={share} bound={b}: trajectory diverged"
                );
            }
            let front = res.front(c, MetricKind::Er).expect("front exists");
            assert!(!front.is_empty());
            // Loosest-bound instance should not be beaten on area.
            let min_area = res
                .instances
                .iter()
                .map(|r| r.result.aig.n_ands())
                .min()
                .unwrap();
            assert_eq!(front.points()[0].area, min_area);
        }
    }

    #[test]
    fn empty_job_returns_at_once() {
        let res = stack::tests::within(10, || {
            run(
                &SweepJob::new(),
                &SweepOptions {
                    threads: 4,
                    ..SweepOptions::default()
                },
            )
        });
        assert!(res.instances.is_empty());
        assert!(res.fronts.is_empty());
    }

    #[test]
    fn more_workers_than_instances_return_in_submission_order() {
        use accals::SizeParam;
        let bounds = [0.1, 0.02];
        let res = stack::tests::within(60, move || {
            let mut base = AccalsConfig::new(MetricKind::Er, 0.05);
            base.r_ref = SizeParam::Fixed(20);
            base.r_sel = SizeParam::Fixed(4);
            let mut job = SweepJob::new();
            let c = job.add_circuit(benchgen::adders::rca(4));
            job.add_grid(c, &base, &bounds);
            let opts = SweepOptions {
                threads: 8,
                share: false,
                ..SweepOptions::default()
            };
            run(&job, &opts)
        });
        let got: Vec<(usize, f64)> = res
            .instances
            .iter()
            .map(|r| (r.instance, r.error_bound))
            .collect();
        assert_eq!(got, [(0, bounds[0]), (1, bounds[1])]);
    }

    #[test]
    fn events_stream_rounds_and_fronts() {
        use accals::SizeParam;
        let golden = benchgen::adders::rca(8);
        let mut base = AccalsConfig::new(MetricKind::Er, 0.05);
        base.r_ref = SizeParam::Fixed(20);
        base.r_sel = SizeParam::Fixed(4);
        let mut job = SweepJob::new();
        let c = job.add_circuit(golden);
        job.add_grid(c, &base, &[0.02, 0.08]);
        let mut rounds = 0usize;
        let mut done = 0usize;
        let mut front_points = 0usize;
        let res = run_traced(&job, &SweepOptions::default(), &mut |ev| match ev {
            SweepEvent::Round { .. } => rounds += 1,
            SweepEvent::InstanceDone { .. } => done += 1,
            SweepEvent::FrontPoint { .. } => front_points += 1,
        });
        assert_eq!(done, 2);
        assert!(front_points >= 1);
        let total_rounds: usize = res.instances.iter().map(|r| r.result.rounds.len()).sum();
        assert_eq!(rounds, total_rounds);
        // Both instances finished within their bounds.
        for r in &res.instances {
            assert!(r.result.error <= r.error_bound);
        }
    }
}
