//! `blinkbench` command line. The contract form is
//! `blinkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`;
//! `run --all` and `compare` work on sets of such runs.

use blinkbench::inputs::Workload;
use blinkbench::json::{obj, Json};
use blinkbench::report::{Report, END_TO_END, PER_LAYER};
use blinkbench::sets::{compare, run_set, SetArgs};
use blinkbench::workloads::{RunArgs, OUT_DIR};
use blinkbench::{layers, workloads};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  blinkbench [run] --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  blinkbench run --all [--seed <n>] [--seconds <s>] [--out <dir>] [--reverse] [--smoke]
  blinkbench compare <setA> <setB>
workloads: adhoc_direct dashboard_service heavy_scan ingest_durable";

/// `--flag value` pairs, bare `--switches`, and positionals.
struct Cli {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Cli {
        let mut cli = Cli {
            flags: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.strip_prefix("--") {
                Some(name) if matches!(name, "all" | "smoke" | "reverse") => {
                    cli.switches.push(name.to_string())
                }
                Some(name) => cli
                    .flags
                    .push((name.to_string(), args.next().unwrap_or_default())),
                None => cli.positional.push(a),
            }
        }
        cli
    }

    fn flag<T: std::str::FromStr>(&self, name: &str) -> Option<Result<T, String>> {
        self.flags.iter().find(|(k, _)| k == name).map(|(_, v)| {
            v.parse()
                .map_err(|_| format!("--{name}: cannot read `{v}`"))
        })
    }

    fn flag_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.flag(name).unwrap_or(Ok(default))
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// The commit of the checkout the command runs in, when it is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.trim().is_empty() => head.trim().to_string(),
        None => "unknown".into(),
    }
}

fn meta(seed: u64, seconds: f64, smoke: bool) -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc", Json::Num(nproc as f64)),
        ("commit", Json::Str(commit())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
    ]
}

/// One workload in this process: prints the metric table, writes the
/// result (and trace) file, ends with the contract's result line.
fn run_one(cli: &Cli) -> Result<ExitCode, String> {
    let name: String = cli.flag("workload").ok_or("missing --workload")??;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
    let args = RunArgs {
        workload,
        seed: cli.flag_or("seed", 2013)?,
        seconds: cli.flag_or("seconds", 10.0)?,
        smoke: cli.switch("smoke"),
        out: PathBuf::from(OUT_DIR),
    };
    let trace = match cli.flag_or::<u8>("trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let (report, declared, file, spans): (Report, &[_], String, Option<Json>) = if trace {
        let (report, spans) = layers::run(&args);
        let file = format!("trace_{name}.json");
        (report, &PER_LAYER, file, Some(spans))
    } else {
        (
            workloads::run(&args),
            &END_TO_END,
            format!("{name}.json"),
            None,
        )
    };
    print!("{}", report.render_table(declared));
    let result = report.result_json(declared);
    let mut doc = meta(args.seed, args.seconds, args.smoke);
    doc.push(("workload", Json::Str(name.clone())));
    doc.push((
        "config",
        Json::Arr(
            workload
                .stated_config()
                .iter()
                .map(|s| Json::Str((*s).into()))
                .collect(),
        ),
    ));
    doc.push((
        "notes",
        Json::Arr(report.notes.iter().cloned().map(Json::Str).collect()),
    ));
    doc.push(("result", result.clone()));
    if let Some(spans) = spans {
        doc.push(("spans", spans));
    }
    let path = args.out.join(file);
    std::fs::write(&path, obj(doc).render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", result.render());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn real_main() -> Result<ExitCode, String> {
    let cli = Cli::parse(std::env::args().skip(1));
    match cli.positional.first().map(String::as_str) {
        None | Some("run") if !cli.switch("all") => run_one(&cli),
        Some("run") => {
            let args = SetArgs {
                seed: cli.flag_or("seed", 2013)?,
                seconds: cli.flag_or("seconds", 10.0)?,
                smoke: cli.switch("smoke"),
                reverse: cli.switch("reverse"),
                out: cli.flag_or("out", Path::new(OUT_DIR).join("set"))?,
            };
            let correct = run_set(&args, &meta(args.seed, args.seconds, args.smoke))?;
            Ok(if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("compare") => {
            let [_, a, b] = cli.positional.as_slice() else {
                return Err(USAGE.into());
            };
            let regressed = compare(
                Path::new("BENCHMARK.json"),
                &PathBuf::from(a),
                &PathBuf::from(b),
            )?;
            Ok(if regressed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("blinkbench: {e}");
        ExitCode::from(2)
    })
}
