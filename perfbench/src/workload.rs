//! The two workloads and the inputs they hand the program.
//!
//! A run of a workload simulates a fixed set of independent floors, each
//! built from its own seed drawn from the run's `--seed`, in a fixed number
//! of rounds: every round simulates every floor once. One floor's timings
//! swing by tens of percent from seed to seed, because failed A* searches
//! cluster, and the same simulation's wall time swings by up to half as
//! much again from second to second on a shared host. Many small floors,
//! summarised by their geometric mean or pooled percentiles, damp the
//! first; the fastest time of each tick over the rounds, which are spread
//! evenly over the run, damps the second: a busy spell on the host rarely
//! covers all of them.
//!
//! Each floor is a built `Instance` whose item list is moved into a command
//! script: every item becomes a `Command::SubmitOrder` delivered on its
//! arrival tick, then a `Command::Shutdown` follows the last one. The
//! engine therefore sees the orders land on the same ticks as a
//! pregenerated run (open loop in simulated time), and every order gets an
//! `Ack::Accepted` / `Ack::Completed` pair the driver can time.

use tprw_simulator::{Command, EngineConfig, OrderSpec, SequencedCommand};
use tprw_warehouse::{
    DisruptionConfig, Instance, LayoutConfig, OrderId, ScenarioSpec, Tick, WorkloadConfig,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Planning-bound congested floors under breakdowns, blockades and a
    /// station closure: A* tables, failed searches and selection dominate,
    /// and oracle, path-cache and KNN invalidation between queries forces
    /// replans.
    PaperDisrupted,
    /// Engine-bound live service with periodic checkpoints.
    LiveCheckpointed,
}

impl Workload {
    /// Times each floor is simulated per run.
    pub const ROUNDS: usize = 10;

    pub const ALL: [Workload; 2] = [Workload::PaperDisrupted, Workload::LiveCheckpointed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDisrupted => "paper-disrupted",
            Workload::LiveCheckpointed => "live-checkpointed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn default_seed(self) -> u64 {
        match self {
            Workload::PaperDisrupted => 95,
            Workload::LiveCheckpointed => 96,
        }
    }

    /// Floors per run.
    pub fn floors(self) -> usize {
        match self {
            Workload::PaperDisrupted => 28,
            Workload::LiveCheckpointed => 8,
        }
    }

    /// Ticks between checkpoints (`Engine::snapshot` → `encode_snapshot` →
    /// `decode_snapshot`), if the workload takes any.
    pub fn checkpoint_every(self) -> Option<Tick> {
        match self {
            Workload::LiveCheckpointed => Some(8_000),
            Workload::PaperDisrupted => None,
        }
    }

    /// The seed of floor `k` of a run seeded with `seed`.
    pub fn floor_seed(seed: u64, k: usize) -> u64 {
        splitmix64(seed ^ splitmix64(k as u64))
    }

    fn spec(self, seed: u64) -> ScenarioSpec {
        match self {
            // A sixth of the paper-scale floor of
            // `eatp_bench::sim_cases::paper_congested` (200×200, 500 robots,
            // 2 000 racks, 24 pickers, 1 200 items at 4.0/tick) at its
            // densities and per-picker load, under the paper-scale disruption
            // wave (120 breakdowns, 400 blockades, 4 closures on the paper
            // floor) scaled by the same sixth, with one closure kept. Small
            // enough that a run holds dozens of floors in all its rounds;
            // large enough that planning takes over 90% of tick time.
            Workload::PaperDisrupted => ScenarioSpec {
                name: self.name().into(),
                layout: LayoutConfig {
                    width: 82,
                    height: 82,
                    border_walls: true,
                    ..LayoutConfig::default()
                },
                n_racks: 333,
                n_robots: 83,
                n_pickers: 4,
                workload: WorkloadConfig::poisson(200, 4.0 / 6.0),
                disruptions: Some(DisruptionConfig {
                    breakdowns: 20,
                    breakdown_ticks: (60, 200),
                    blockades: 66,
                    blockade_ticks: (60, 200),
                    closures: 1,
                    closure_ticks: (100, 250),
                    removals: 0,
                    removal_ticks: (1, 1),
                    window: (20, 1400),
                }),
                seed,
            },
            // An open 200×200 floor and a 300-robot fleet taking 250 orders at
            // 0.0125 per tick (about 20 000 ticks, two checkpoints), so that a
            // run holds eight floors in all its rounds. With fewer orders
            // per floor the path cache is still cold for much of the run and
            // leg planning, not the engine, takes the largest share of tick
            // time.
            Workload::LiveCheckpointed => ScenarioSpec {
                name: self.name().into(),
                layout: LayoutConfig::sized(200, 200),
                n_racks: 400,
                n_robots: 300,
                n_pickers: 12,
                workload: WorkloadConfig::poisson(250, 0.0125),
                disruptions: None,
                seed,
            },
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything the program receives for one floor: the floor (items
/// removed) and the command script.
pub struct Inputs {
    pub instance: Instance,
    /// `(tick, commands)` batches in increasing tick order.
    pub script: Vec<(Tick, Vec<SequencedCommand>)>,
    /// Number of `SubmitOrder` commands in the script.
    pub orders: usize,
    /// Number of commands in the script.
    pub commands: usize,
    pub config: EngineConfig,
}

impl Inputs {
    pub fn build(workload: Workload, seed: u64) -> Result<Self, String> {
        let mut instance = workload
            .spec(seed)
            .build()
            .map_err(|e| format!("{} (seed {seed}) does not build: {e:?}", workload.name()))?;
        let items = std::mem::take(&mut instance.items);
        if items.windows(2).any(|w| w[1].arrival < w[0].arrival) {
            return Err("item arrivals are not in tick order".into());
        }
        let mut script: Vec<(Tick, Vec<SequencedCommand>)> = Vec::new();
        for (i, item) in items.iter().enumerate() {
            let command = SequencedCommand {
                seq: i as u64,
                command: Command::SubmitOrder {
                    spec: OrderSpec {
                        order: OrderId::new(i),
                        rack: item.rack,
                        processing: item.processing,
                        arrival: item.arrival,
                    },
                },
            };
            match script.last_mut() {
                Some((t, batch)) if *t == item.arrival => batch.push(command),
                _ => script.push((item.arrival, vec![command])),
            }
        }
        let shutdown = SequencedCommand {
            seq: items.len() as u64,
            command: Command::Shutdown,
        };
        match script.last_mut() {
            Some((_, batch)) => batch.push(shutdown),
            None => script.push((0, vec![shutdown])),
        }
        let config = EngineConfig::builder()
            .live(true)
            .build()
            .map_err(|e| format!("engine config: {e}"))?;
        Ok(Self {
            instance,
            script,
            orders: items.len(),
            commands: items.len() + 1,
            config,
        })
    }
}
