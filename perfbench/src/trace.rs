//! Spans recorded from outside the program.
//!
//! The driver opens a span around every `Engine::tick_with_commands` call
//! and every checkpoint step; [`Traced`] wraps the boxed planner and opens
//! one span per `Planner` trait call, whose parent is whatever span is open
//! at the time (the enclosing tick, set-up or checkpoint). Spans stay in
//! memory and are written once, when the run ends. Without a recorder the
//! wrapper only counts, which is how the untraced runs are checked.

use eatp_core::planner::TentativeLeg;
use eatp_core::{
    AssignmentPlan, InjectedFault, LegRequest, Planner, PlannerError, PlannerEvent, PlannerStats,
    WorldView,
};
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;
use tprw_pathfinding::Path;
use tprw_warehouse::{DisruptionEvent, GridPos, Instance, RobotId, Tick};

/// One timed interval. `id` is the span's index plus one, so `parent == 0`
/// means "no parent".
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store with a stack of open spans.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The recorder shared between the driver and the planner wrapper.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

impl Recorder {
    pub fn shared() -> SharedRecorder {
        Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span; returns its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        let parent = self.open.last().map_or(0, |&p| self.spans[p].id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: (index + 1) as u32,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        index
    }

    /// Close the innermost open span, which must be `index`.
    pub fn close(&mut self, index: usize) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans close in LIFO order");
        self.spans[index].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one tab-separated line under a header line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tdur_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.name,
                s.start_ns,
                s.dur_ns()
            )?;
        }
        out.flush()
    }
}

/// Run `f` inside a span named `name` when a recorder is given.
pub fn in_span<R>(rec: Option<&SharedRecorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match rec {
        None => f(),
        Some(rec) => {
            let span = rec.borrow_mut().open(name);
            let out = f();
            rec.borrow_mut().close(span);
            out
        }
    }
}

/// Counters the wrapper reads off the arguments and results of the calls
/// it forwards.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallCounters {
    /// Robots assigned by `plan`.
    pub assigned: u64,
    /// Σ min(idle robots, selectable racks) over `plan` calls.
    pub assignable: u64,
    /// Leg requests passed to `commit_legs`.
    pub legs_requested: u64,
    /// Leg requests `commit_legs` returned a path for.
    pub legs_ok: u64,
    /// Direct `plan_leg` calls, which the batched leg path never makes.
    pub plan_leg_calls: u64,
}

/// A `Planner` that forwards every trait method, default bodies included,
/// to the wrapped planner, counts what [`CallCounters`] holds and, given a
/// recorder, records one span per call. Forwarding the
/// defaults matters: a method left to its default body here would run the
/// default instead of the wrapped planner's override.
pub struct Traced {
    inner: Box<dyn Planner>,
    rec: Option<SharedRecorder>,
    pub counters: CallCounters,
}

impl Traced {
    pub fn new(inner: Box<dyn Planner>, rec: Option<SharedRecorder>) -> Self {
        Self {
            inner,
            rec,
            counters: CallCounters::default(),
        }
    }
}

impl Planner for Traced {
    fn name(&self) -> &'static str {
        in_span(self.rec.as_ref(), "name", || self.inner.name())
    }

    fn init(&mut self, instance: &Instance) {
        in_span(self.rec.as_ref(), "init", || self.inner.init(instance))
    }

    fn plan(&mut self, world: &WorldView<'_>) -> Result<Vec<AssignmentPlan>, PlannerError> {
        let out = in_span(self.rec.as_ref(), "plan", || self.inner.plan(world));
        self.counters.assignable +=
            world.idle_robots.len().min(world.selectable_racks.len()) as u64;
        if let Ok(plans) = &out {
            self.counters.assigned += plans.len() as u64;
        }
        out
    }

    fn plan_leg(
        &mut self,
        robot: RobotId,
        from: GridPos,
        to: GridPos,
        start: Tick,
        park: bool,
    ) -> Option<Path> {
        self.counters.plan_leg_calls += 1;
        in_span(self.rec.as_ref(), "plan_leg", || {
            self.inner.plan_leg(robot, from, to, start, park)
        })
    }

    fn query_legs(
        &mut self,
        requests: &[LegRequest],
        start: Tick,
        tentative: &mut Vec<TentativeLeg>,
    ) {
        in_span(self.rec.as_ref(), "query_legs", || {
            self.inner.query_legs(requests, start, tentative)
        })
    }

    fn commit_legs(
        &mut self,
        requests: &[LegRequest],
        start: Tick,
        tentative: &mut Vec<TentativeLeg>,
        results: &mut Vec<Option<Path>>,
    ) -> Result<(), PlannerError> {
        let out = in_span(self.rec.as_ref(), "commit_legs", || {
            self.inner.commit_legs(requests, start, tentative, results)
        });
        self.counters.legs_requested += requests.len() as u64;
        if out.is_ok() {
            self.counters.legs_ok += results.iter().filter(|r| r.is_some()).count() as u64;
        }
        out
    }

    fn plan_legs(
        &mut self,
        requests: &[LegRequest],
        start: Tick,
        results: &mut Vec<Option<Path>>,
    ) -> Result<(), PlannerError> {
        in_span(self.rec.as_ref(), "plan_legs", || {
            self.inner.plan_legs(requests, start, results)
        })
    }

    fn set_parallel_workers(&mut self, workers: usize) {
        in_span(self.rec.as_ref(), "set_parallel_workers", || {
            self.inner.set_parallel_workers(workers)
        })
    }

    fn on_dock(&mut self, robot: RobotId) {
        in_span(self.rec.as_ref(), "on_dock", || self.inner.on_dock(robot))
    }

    fn on_event(&mut self, event: PlannerEvent<'_>) {
        in_span(self.rec.as_ref(), "on_event", || self.inner.on_event(event))
    }

    fn on_disruption(&mut self, event: &DisruptionEvent, t: Tick) {
        in_span(self.rec.as_ref(), "on_disruption", || {
            self.inner.on_disruption(event, t)
        })
    }

    fn on_maintenance_notice(&mut self, pos: GridPos, from: Tick, until: Tick) {
        in_span(self.rec.as_ref(), "on_maintenance_notice", || {
            self.inner.on_maintenance_notice(pos, from, until)
        })
    }

    fn on_path_cancelled(&mut self, robot: RobotId, pos: GridPos, t: Tick) {
        in_span(self.rec.as_ref(), "on_path_cancelled", || {
            self.inner.on_path_cancelled(robot, pos, t)
        })
    }

    fn inject_fault(&mut self, fault: &InjectedFault) -> bool {
        in_span(self.rec.as_ref(), "inject_fault", || {
            self.inner.inject_fault(fault)
        })
    }

    fn recover_degraded(&mut self) {
        in_span(self.rec.as_ref(), "recover_degraded", || {
            self.inner.recover_degraded()
        })
    }

    fn housekeeping(&mut self, t: Tick) {
        in_span(self.rec.as_ref(), "housekeeping", || {
            self.inner.housekeeping(t)
        })
    }

    fn stats(&self) -> PlannerStats {
        in_span(self.rec.as_ref(), "stats", || self.inner.stats())
    }

    fn export_snapshot(&self) -> serde::Value {
        in_span(self.rec.as_ref(), "export_snapshot", || {
            self.inner.export_snapshot()
        })
    }

    fn import_snapshot(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        in_span(self.rec.as_ref(), "import_snapshot", || {
            self.inner.import_snapshot(state)
        })
    }
}
