//! `ofar-sim` — command-line front end to the simulator.
//!
//! ```text
//! ofar-sim [OPTIONS]
//!
//!   --mech <MIN|VAL|PB|PAR|OFAR|OFAR-L>   routing mechanism   [OFAR]
//!   --pattern <UN|ADV+<n>|MIX1|MIX2|MIX3> traffic pattern     [UN]
//!   --load <f>            offered load, phits/(node·cycle)    [0.3]
//!   --h <n>               Dragonfly h (balanced max-size)     [2]
//!   --warmup <cycles>                                         [3000]
//!   --measure <cycles>    ≥ 1                                 [5000]
//!   --ring <none|physical|embedded>   escape model  [per mechanism]
//!   --rings <k>           number of escape rings              [1]
//!   --seed <n>                                                [42]
//!   --ber <f>             per-phit link bit-error rate        [0]
//!   --burst <pkts/node>   burst mode instead of steady state, ≥ 1
//!   --conformance         run the routing-conformance checker and exit
//!   --replay <snapshot>   restore a snapshot (e.g. a post-mortem stall
//!                         dump) and trace its final cycles
//!   --cycles <n>          cycles to replay                     [2000]
//! ```
//!
//! A nonzero `--ber` enables the link-level retransmission layer
//! (DESIGN §9); burst mode then also reports the retry counters.
//!
//! The command line fails closed: a token that is not one of the flags
//! above (or the value of one), or a flag given twice, exits with
//! status 2 naming the token — a misspelled flag must not silently
//! simulate the default. So does a flag the chosen mode never reads
//! (`--replay` reads only `--cycles`; `--conformance` no traffic or run
//! length; `--burst` no `--load`, `--warmup` or `--measure`; `--cycles`
//! needs `--replay`), and a value outside its range: an `ADV+<n>`
//! offset outside `1..groups`, a load outside `0..=packet_size`, a
//! `--measure` or `--burst` of 0, a `--ring` the mechanism does not run
//! with, or `--rings` other than 1 for a mechanism without a ring. Every
//! value is parsed before anything is printed or built, the checkpoint
//! knobs a steady-state run reads (`OFAR_CHECKPOINT_EVERY`,
//! `OFAR_CHECKPOINT_DIR`) included.

use ofar::prelude::*;
use std::process::exit;

/// The documented flags and whether each takes a value.
const FLAGS: &[(&str, bool)] = &[
    ("--mech", true),
    ("--pattern", true),
    ("--load", true),
    ("--h", true),
    ("--warmup", true),
    ("--measure", true),
    ("--ring", true),
    ("--rings", true),
    ("--seed", true),
    ("--ber", true),
    ("--burst", true),
    ("--conformance", false),
    ("--replay", true),
    ("--cycles", true),
];

/// Each mode, by the flag that selects it (the first present wins, in
/// this order), and the other flags it reads. Steady state, selected by
/// none of them, reads every flag but `--cycles`.
const MODES: &[(&str, &[&str])] = &[
    ("--replay", &["--cycles"]),
    (
        "--conformance",
        &["--mech", "--h", "--ring", "--rings", "--seed", "--ber"],
    ),
    (
        "--burst",
        &[
            "--mech",
            "--pattern",
            "--h",
            "--ring",
            "--rings",
            "--seed",
            "--ber",
        ],
    ),
];

/// The command line as `(flag, value)` pairs, validated against
/// [`FLAGS`] before anything is looked up.
struct Args(Vec<(&'static str, Option<String>)>);

impl Args {
    fn parse_argv(argv: Vec<String>) -> Result<Self, String> {
        let mut pairs: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut it = argv.into_iter();
        while let Some(tok) = it.next() {
            let Some(&(flag, takes_value)) = FLAGS.iter().find(|(f, _)| *f == tok) else {
                return Err(format!("unknown flag {tok}"));
            };
            if pairs.iter().any(|(f, _)| *f == flag) {
                return Err(format!("flag {tok} given more than once"));
            }
            let value = if takes_value {
                Some(it.next().ok_or(format!("flag {tok} needs a value"))?)
            } else {
                None
            };
            pairs.push((flag, value));
        }
        Ok(Self(pairs))
    }

    /// Refuse a flag the selected mode would silently ignore.
    fn check_mode(&self) -> Result<(), String> {
        let (mode, reads) = MODES
            .iter()
            .find(|(mode, _)| self.has(mode))
            .map_or(("steady state", None), |&(mode, reads)| (mode, Some(reads)));
        let read = |flag: &str| match reads {
            Some(reads) => flag == mode || reads.contains(&flag),
            None => flag != "--cycles",
        };
        match self.0.iter().find(|(flag, _)| !read(flag)) {
            Some((flag, _)) => Err(format!("{flag} does not apply to {mode}")),
            None => Ok(()),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| *f == flag)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// A name-valued flag (or its default) through the library's own
    /// parser; the parser's error is the message.
    fn parse_with<T>(
        &self,
        flag: &str,
        default: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> T {
        parse(self.get(flag).unwrap_or(default)).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2);
        })
    }

    fn parse<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        match self.get(flag) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for {flag}: {v}");
                exit(2);
            }),
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        // The usage block of the module doc: the lines between its fences.
        include_str!("ofar-sim.rs")
            .lines()
            .skip_while(|l| !l.starts_with("//! ```text"))
            .skip(1)
            .take_while(|l| !l.starts_with("//! ```"))
            .for_each(|l| println!("{}", l.strip_prefix("//! ").unwrap_or("")));
        return;
    }
    let args = Args::parse_argv(argv)
        .and_then(|args| args.check_mode().map(|()| args))
        .unwrap_or_else(|e| {
            eprintln!("{e} (see --help)");
            exit(2);
        });

    if let Some(path) = args.get("--replay") {
        let cycles: u64 = args.parse("--cycles", 2_000);
        let rep = match replay_snapshot(std::path::Path::new(path), cycles) {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("cannot replay {path}: {e}");
                exit(1);
            }
        };
        eprintln!(
            "{} snapshot taken at cycle {}; replaying up to {cycles} cycles",
            rep.mechanism, rep.start_cycle
        );
        for t in &rep.trace {
            println!(
                "cycle {:>8}  delivered {:>3}  retx {:>3}  granted {}  in-flight {}",
                t.cycle,
                t.delivered,
                t.retransmits,
                if t.granted { "yes" } else { " no" },
                t.in_flight
            );
        }
        println!(
            "replay ended at cycle {} ({}; {} delivered total)",
            rep.end_cycle,
            if rep.drained {
                "drained"
            } else {
                "still stuck"
            },
            rep.stats.delivered_packets
        );
        println!("audit: {}", rep.audit);
        return;
    }

    let kind: MechanismKind = args.parse_with("--mech", "OFAR", str::parse);
    let h: usize = args.parse("--h", 2);
    let seed: u64 = args.parse("--seed", 42);
    let invalid = |why: ofar::engine::ConfigError| -> ! {
        eprintln!("invalid configuration: {why}");
        exit(2)
    };
    let mut cfg = experiments::paper_config(h)
        .unwrap_or_else(|why| invalid(why))
        .with_seed(seed);
    cfg.ber = args.parse("--ber", 0.0);
    cfg.escape_rings = args.parse("--rings", 1);
    let ring_flag = args.get("--ring");
    match ring_flag {
        Some("none") => cfg.ring = RingMode::None,
        Some("physical") => cfg.ring = RingMode::Physical,
        Some("embedded") => cfg.ring = RingMode::Embedded,
        Some(other) => {
            eprintln!("unknown ring model {other}");
            exit(2);
        }
        None => {}
    }
    let asked = cfg.ring;
    let cfg = kind.adapt_config(cfg);
    // `adapt_config` replaces a ring the mechanism cannot run with: refuse
    // the flag rather than simulate something else.
    let refused = match ring_flag {
        Some(name) if cfg.ring != asked => Some(format!("--ring {name}")),
        _ if cfg.ring == RingMode::None && cfg.escape_rings != 1 => {
            Some(format!("--rings {}", cfg.escape_rings))
        }
        _ => None,
    };
    if let Some(flag) = refused {
        eprintln!(
            "invalid configuration: {flag} does not apply: {} runs with ring {:?}",
            kind.name(),
            cfg.ring
        );
        exit(2);
    }
    cfg.validate().unwrap_or_else(|why| invalid(why));

    if args.has("--conformance") {
        match conformance(&cfg, kind) {
            Ok(rep) => {
                println!("{rep}");
                for d in &rep.dead {
                    println!(
                        "  dead declared transition: {} -> {} ({:?})",
                        d.from, d.to, d.why
                    );
                }
            }
            Err(e) => {
                println!("{}: NON-CONFORMANT — {e}", kind.name());
                exit(1);
            }
        }
        return;
    }

    // Both checked here, before anything runs, by the rules the asserts
    // of `TrafficGen::new` and `Bernoulli::new` enforce.
    let spec = args.parse_with("--pattern", "UN", |label| {
        let spec = TrafficSpec::parse(label, h)?;
        spec.check_offsets(cfg.params.groups())
            .map_err(|why| format!("invalid value for --pattern: {why}"))?;
        Ok(spec)
    });
    let load: f64 = args.parse("--load", 0.3);
    if let Err(why) = Bernoulli::check_load(load, cfg.packet_size) {
        eprintln!("invalid value for --load: {why}");
        exit(2);
    }
    let burst_ppn: Option<usize> = args.has("--burst").then(|| args.parse("--burst", 0));
    let opts = SteadyOpts {
        warmup: args.parse("--warmup", 3_000),
        measure: args.parse("--measure", 5_000),
    };
    if opts.measure == 0 {
        eprintln!("invalid value for --measure: 0");
        exit(2);
    }
    if burst_ppn == Some(0) {
        eprintln!("invalid value for --burst: 0");
        exit(2);
    }
    if let Err(e) = CheckpointPolicy::from_env() {
        eprintln!("error: {e}");
        exit(2);
    }

    eprintln!(
        "{} on h={h} ({} nodes), {} traffic, ring {:?} ×{}",
        kind.name(),
        cfg.params.nodes(),
        spec.label(),
        cfg.ring,
        cfg.escape_rings,
    );

    if let Some(ppn) = burst_ppn {
        let point = Point::new(cfg, kind, &spec, seed, Shape::burst(ppn));
        let (r, NoHooks) = burst(&point, NoHooks);
        match r.cycles {
            Some(c) => {
                println!(
                    "burst of {ppn} pkts/node drained in {c} cycles (avg latency {:.1}, p99 {:.0}, {} ring entries)",
                    r.avg_latency,
                    r.p99_latency.expect("burst records latencies"),
                    r.ring_entries
                );
                if cfg.ber > 0.0 {
                    println!(
                        "link layer: {} retransmits ({} crc drops, {} wire drops), {} escalations, {} duplicates",
                        r.stats.llr_retransmits,
                        r.stats.llr_crc_drops,
                        r.stats.llr_wire_drops,
                        r.stats.llr_escalations,
                        r.stats.duplicate_deliveries,
                    );
                }
            }
            None => {
                println!("STALLED after {} deliveries: {:?}", r.delivered, r.stall);
                exit(1);
            }
        }
        return;
    }

    let p = steady_state(cfg, kind, &spec, load, opts, seed);
    println!(
        "offered {:.3}  accepted {:.4}  latency {:.1} cycles  hops {:.2}  misroutes/pkt {:.3}  ring entries {}",
        p.load, p.throughput, p.avg_latency, p.avg_hops, p.misroute_rate, p.ring_entries
    );
}
