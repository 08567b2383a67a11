//! The standalone `sling-serve` daemon.
//!
//! Boots an engine pool — optionally pre-warmed with a default tenant
//! (program + predicate library + warm-loaded entailment-cache
//! snapshot) — and serves analysis batches over the newline-delimited
//! wire protocol until killed. Batches may upload their own program
//! and predicates; the pool builds each distinct upload once, reuses
//! it while resident, and evicts least-recently-used past `--pool-cap`.
//!
//! ```sh
//! sling-serve --program prog.minic --predicates lib.preds \
//!             --addr 127.0.0.1:7341 --cache /var/cache/sling.bin --snapshot-secs 30
//! # or, for smoke tests and demos, the built-in list corpus:
//! sling-serve --corpus DemoNode --addr 127.0.0.1:7341
//! # or fully multi-tenant, nothing baked in — clients upload programs:
//! sling-serve --addr 127.0.0.1:7341 --pool-cap 4
//! # or a fleet sharing one snapshot directory, live: each daemon saves
//! # its own serve-<pid>.snap there and folds its siblings' in at boot
//! # and on every snapshot tick
//! sling-serve --corpus DemoNode --addr 127.0.0.1:7341 --cache /var/lib/sling/snaps --snapshot-secs 10
//! sling-serve --corpus DemoNode --addr 127.0.0.1:7342 --cache /var/lib/sling/snaps --snapshot-secs 10
//! ```

use std::collections::HashSet;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use sling::{Engine, SlingConfig, VerifySettings};
use sling_serve::{EnginePool, PoolSettings, ServeOptions, Service, DEFAULT_POOL_CAPACITY};
use sling_suite::fixtures::ListCorpus;

const USAGE: &str = "\
usage: sling-serve [--program FILE --predicates FILE | --corpus NODE]
                   [--addr HOST:PORT] [--cache FILE|DIR] [--snapshot-secs N]
                   [--cache-cap N] [--max-conns N] [--parallelism N]
                   [--pool-cap N] [--verify]

  --program FILE      MiniC source of the default program to serve; with
                      neither --program nor --corpus the daemon boots
                      empty and every batch must upload its program
  --predicates FILE   predicate library source
  --corpus NODE       serve the built-in four-function list corpus over
                      struct NODE instead of reading files
  --addr HOST:PORT    listen address (default 127.0.0.1:7341; port 0
                      picks an ephemeral port, printed at boot)
  --cache FILE|DIR    persistent entailment-cache snapshot for the
                      default tenant: warm-loaded at boot, saved on the
                      snapshot interval and at exit. A directory merges
                      every *.snap inside at boot and again on every
                      snapshot interval, so running daemons on one
                      directory share verdicts live (corrupt siblings
                      are skipped with a warning), and saves to
                      <DIR>/serve-<pid>.snap; a missing, extension-less
                      path is created as a directory. Needs a default
                      tenant (uploaded tenants are ephemeral)
  --snapshot-secs N   snapshot period: save, and with a directory fold
                      the siblings in, every N seconds (default 60;
                      needs --cache)
  --cache-cap N       bound each engine's entailment cache to ~N entries
                      with LRU eviction (default: unbounded within memory)
  --max-conns N       serve at most N concurrent connections; excess
                      connections get a typed `busy` frame and should
                      retry (default: unbounded)
  --parallelism N     worker budget (default: SLING_PARALLELISM or cores)
  --pool-cap N        hold at most N uploaded-tenant engines resident,
                      evicting least-recently-used (default 8; the
                      default tenant is pinned and not counted)
  --verify            grade every inferred invariant with the static
                      verification post-pass (counterexample-guided
                      refinement on refutation); the summed grade totals
                      ride each batch's `done` epilogue. `SLING_VERIFY=off`
                      in the daemon's environment overrides this flag";

struct Args {
    program: Option<String>,
    predicates: Option<String>,
    corpus: Option<String>,
    addr: String,
    cache: Option<String>,
    snapshot_secs: Option<u64>,
    cache_cap: Option<usize>,
    max_conns: Option<usize>,
    parallelism: Option<usize>,
    pool_cap: Option<usize>,
    verify: bool,
}

impl Args {
    /// Whether the daemon boots with a default tenant at all.
    fn has_default_tenant(&self) -> bool {
        self.corpus.is_some() || self.program.is_some()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        program: None,
        predicates: None,
        corpus: None,
        addr: "127.0.0.1:7341".to_string(),
        cache: None,
        snapshot_secs: None,
        cache_cap: None,
        max_conns: None,
        parallelism: None,
        pool_cap: None,
        verify: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n\n{USAGE}"))
        };
        match flag.as_str() {
            "--program" => args.program = Some(value("--program")?),
            "--predicates" => args.predicates = Some(value("--predicates")?),
            "--corpus" => args.corpus = Some(value("--corpus")?),
            "--addr" => args.addr = value("--addr")?,
            "--cache" => args.cache = Some(value("--cache")?),
            "--snapshot-secs" => {
                args.snapshot_secs = Some(
                    value("--snapshot-secs")?
                        .parse()
                        .map_err(|e| format!("bad --snapshot-secs: {e}"))?,
                );
            }
            "--cache-cap" => {
                args.cache_cap = Some(
                    value("--cache-cap")?
                        .parse()
                        .map_err(|e| format!("bad --cache-cap: {e}"))?,
                );
            }
            "--max-conns" => {
                args.max_conns = Some(
                    value("--max-conns")?
                        .parse()
                        .map_err(|e| format!("bad --max-conns: {e}"))?,
                );
            }
            "--parallelism" => {
                args.parallelism = Some(
                    value("--parallelism")?
                        .parse()
                        .map_err(|e| format!("bad --parallelism: {e}"))?,
                );
            }
            "--pool-cap" => {
                args.pool_cap = Some(
                    value("--pool-cap")?
                        .parse()
                        .map_err(|e| format!("bad --pool-cap: {e}"))?,
                );
            }
            "--verify" => args.verify = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    match (&args.corpus, &args.program, &args.predicates) {
        (Some(_), None, None) | (None, Some(_), Some(_)) | (None, None, None) => {}
        _ => {
            return Err(format!(
                "need --corpus NODE, both --program and --predicates, or neither \
                 (multi-tenant: clients upload programs)\n\n{USAGE}"
            ))
        }
    }
    if args.cache.is_some() && !args.has_default_tenant() {
        return Err(format!(
            "--cache needs a default tenant (--program/--corpus): uploaded \
             tenants are ephemeral and never snapshotted\n\n{USAGE}"
        ));
    }
    if args.snapshot_secs.is_some() && args.cache.is_none() {
        return Err(format!(
            "--snapshot-secs needs --cache: it paces the snapshot save and, \
             with a directory, the sibling fold\n\n{USAGE}"
        ));
    }
    Ok(args)
}

/// Resolves `--cache`: a file is the snapshot path itself; a directory
/// means "merge every `*.snap` inside at boot" with this process
/// writing its own `serve-<pid>.snap` sibling. A path that does not
/// exist yet and has no extension is created as a directory — a fresh
/// host pointing at `/var/lib/sling/snaps` must get fleet sharing, not
/// a snapshot file silently squatting on the directory's name.
fn cache_layout(
    cache: &Option<String>,
) -> (Option<std::path::PathBuf>, Option<std::path::PathBuf>) {
    let Some(cache) = cache else {
        return (None, None);
    };
    let path = std::path::PathBuf::from(cache);
    let dir_intended = path.is_dir()
        || (!path.exists() && path.extension().is_none() && {
            match std::fs::create_dir_all(&path) {
                Ok(()) => true,
                Err(e) => {
                    eprintln!(
                        "sling-serve: cannot create snapshot directory {}: {e}; \
                         treating --cache as a snapshot file",
                        path.display()
                    );
                    false
                }
            }
        });
    if dir_intended {
        let own = path.join(format!("serve-{}.snap", std::process::id()));
        (Some(own), Some(path))
    } else {
        (Some(path), None)
    }
}

fn build_engine(
    args: &Args,
    cache_path: &Option<std::path::PathBuf>,
) -> Result<Engine, Box<dyn std::error::Error>> {
    let (program, predicates) = match &args.corpus {
        Some(node) => {
            let corpus = ListCorpus::new(node.clone());
            (corpus.program(), corpus.predicates())
        }
        None => (
            std::fs::read_to_string(args.program.as_ref().expect("validated"))?,
            std::fs::read_to_string(args.predicates.as_ref().expect("validated"))?,
        ),
    };
    let mut builder = Engine::builder()
        .program_source(&program)?
        .predicates_source(&predicates)?;
    if let Some(path) = cache_path {
        builder = builder.cache_path(path);
    }
    if let Some(capacity) = args.cache_cap {
        builder = builder.cache_capacity(capacity);
    }
    if let Some(workers) = args.parallelism {
        builder = builder.parallelism(workers);
    }
    if args.verify {
        builder = builder.verification(VerifySettings::default());
    }
    Ok(builder.build()?)
}

/// Removes `serve-<pid>.snap` siblings whose daemon no longer runs.
/// Only files matching this daemon's own naming scheme are candidates —
/// operator-managed snapshots (`a.snap`, nightly exports, ...) are
/// never touched — and a file that failed to merge is kept for
/// inspection. Liveness comes from `/proc/<pid>`; on platforms without
/// procfs nothing is reaped (accumulation there is bounded by how
/// often daemons restart, and the operator can prune by hand).
fn reap_dead_daemon_snapshots(
    dir: &std::path::Path,
    skipped: &[(std::path::PathBuf, sling::PersistError)],
) -> u64 {
    if !std::path::Path::new("/proc/self").exists() {
        return 0; // no procfs: cannot tell dead from alive
    }
    let own_pid = std::process::id();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut reaped = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(pid) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("serve-"))
            .and_then(|n| n.strip_suffix(".snap"))
            .and_then(|n| n.parse::<u32>().ok())
        else {
            continue;
        };
        if pid == own_pid
            || std::path::Path::new(&format!("/proc/{pid}")).exists()
            || skipped.iter().any(|(p, _)| *p == path)
        {
            continue;
        }
        if std::fs::remove_file(&path).is_ok() {
            reaped += 1;
        }
    }
    reaped
}

/// Folds a snapshot directory into the default tenant, at boot and on
/// every snapshot tick, keeping the warnings bounded: the tick revisits
/// a corrupt sibling every interval, so each unreadable file is warned
/// about the first time it is skipped only, and an unreadable directory
/// once per outage.
#[derive(Default)]
struct SiblingFold {
    warned: HashSet<PathBuf>,
    scan_failing: bool,
}

impl SiblingFold {
    fn run(
        &mut self,
        engine: &Engine,
        dir: &Path,
        own: Option<&Path>,
    ) -> Option<sling_serve::DirMerge> {
        match sling_serve::absorb_snapshot_dir(engine, dir, own) {
            Ok(outcome) => {
                self.scan_failing = false;
                for (path, why) in &outcome.skipped {
                    if self.warned.insert(path.clone()) {
                        eprintln!("sling-serve: skipping snapshot {}: {why}", path.display());
                    }
                }
                Some(outcome)
            }
            Err(e) => {
                if !std::mem::replace(&mut self.scan_failing, true) {
                    eprintln!(
                        "sling-serve: could not scan snapshot directory {}: {e}",
                        dir.display()
                    );
                }
                None
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let (cache_path, cache_dir) = cache_layout(&args.cache);
    let engine = if args.has_default_tenant() {
        match build_engine(&args, &cache_path) {
            Ok(engine) => Some(engine),
            Err(e) => {
                eprintln!("sling-serve: failed to build the engine: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    // Directory mode: fold every sibling snapshot into the live cache.
    // A corrupt or foreign sibling is a warning, never a boot failure.
    let mut fold = SiblingFold::default();
    if let (Some(dir), Some(engine)) = (&cache_dir, &engine) {
        if let Some(outcome) = fold.run(engine, dir, cache_path.as_deref()) {
            println!(
                "sling-serve: merged {} entries from {} snapshot(s) in {} ({} skipped)",
                outcome.merged,
                outcome.files - outcome.skipped.len() as u64,
                dir.display(),
                outcome.skipped.len()
            );
            // The merged entries now live in this cache (and will be in
            // this daemon's own snapshots), so snapshots of *dead*
            // daemons are redundant — reap them, or restarts accumulate
            // one serve-<pid>.snap per boot forever. Boot only: the tick
            // fold below never deletes anything.
            let reaped = reap_dead_daemon_snapshots(dir, &outcome.skipped);
            if reaped > 0 {
                println!("sling-serve: reaped {reaped} snapshot(s) of exited daemons");
            }
        }
    }
    let warm = engine.as_ref().map_or(0, Engine::warm_entries);
    // Uploaded tenants inherit the daemon's run settings; the default
    // tenant keeps its own (identical) build.
    let mut config = SlingConfig::default();
    if args.verify {
        config.verify = Some(VerifySettings::default());
    }
    let settings = PoolSettings {
        config,
        parallelism: args.parallelism,
        cache_capacity: args.cache_cap,
        analysis: Some(sling::AnalysisSettings::default()),
    };
    let pool_cap = args.pool_cap.unwrap_or(DEFAULT_POOL_CAPACITY);
    let pool = EnginePool::new(engine, pool_cap, settings);
    let interval = Duration::from_secs(args.snapshot_secs.unwrap_or(60).max(1));
    let options = ServeOptions {
        snapshot_interval: args.cache.is_some().then_some(interval),
        max_connections: args.max_conns,
        pool_capacity: None, // the pool above carries the capacity
        max_frame_bytes: None,
    };
    let service = match Service::bind_pool(pool, &args.addr, options) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("sling-serve: failed to bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    // The boot line is the readiness signal scripts wait for.
    let tenant = match service.engine() {
        Some(_) => "default tenant".to_string(),
        None => "no default tenant — uploads only".to_string(),
    };
    println!(
        "sling-serve: listening on {} ({} warm cache entries, {} workers, {tenant}, pool cap {pool_cap}{})",
        service.local_addr(),
        warm,
        service.pool().parallelism(),
        if args.verify {
            ", verification post-pass on"
        } else {
            ""
        }
    );
    std::io::stdout().flush().ok();

    // Serve until killed. The daemon has no in-band shutdown frame (a
    // client must not be able to stop a shared service); deployments
    // stop it with a signal, and the periodic snapshotter bounds what a
    // hard kill can lose to one interval. In directory mode this loop
    // is also the live-sharing tick: every snapshot interval it folds
    // the siblings' snapshots in again, so a running daemon picks up a
    // sibling's verdicts within one interval. A sibling that has not
    // re-saved anything new merges 0 entries, and only a tick that
    // merged something says so.
    match (&cache_dir, service.engine()) {
        (Some(dir), Some(engine)) => loop {
            std::thread::sleep(interval);
            if let Some(outcome) = fold.run(engine, dir, cache_path.as_deref()) {
                if outcome.merged > 0 {
                    println!(
                        "sling-serve: folded {} new entries from sibling snapshots in {}",
                        outcome.merged,
                        dir.display()
                    );
                    std::io::stdout().flush().ok();
                }
            }
        },
        _ => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
}
