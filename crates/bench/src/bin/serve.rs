//! The campaign-service socket front end.
//!
//! Binds a unix-domain socket and maps the wire protocol
//! ([`sca_server::parse_request`]) onto a [`sca_server::CampaignServer`]: each
//! connection scripts `submit`/`stats`/`shutdown` lines and gets the
//! corresponding event lines back. A `submit` streams that job's whole
//! event lifecycle (accepted, per-slice progress, final verdict, done)
//! before the next line on the same connection is read; the `submit`
//! binary is the matching client.
//!
//! `shutdown` drains every live job to its verdict, prints the final
//! stats line to stderr, removes the socket and exits 0 — CI treats any
//! other exit status as a failed smoke run.
//!
//! A connection buffers at most [`sca_server::MAX_LINE`] bytes of a
//! request line: a longer line, or one that is not UTF-8, is answered
//! with one `rejected bad line: …` line and the connection is closed.
//!
//! Flags are strict, exactly as the other regeneration binaries: an
//! unknown flag or out-of-range value (`--lanes 0`, `--lanes 9`, …)
//! exits with status 2 before the server starts.

use sca_bench::validate_lanes;

const USAGE: &str = "known flags: --socket PATH (required), --store DIR (required), \
     --workers N, --queue-limit N, --slice-traces N, --threads N, --lanes N, \
     --checkpoint-every N";

/// Strictly parsed `serve` arguments.
#[derive(Clone, Debug)]
struct ServeArgs {
    socket: String,
    store: String,
    workers: usize,
    queue_limit: usize,
    slice_traces: u64,
    threads: usize,
    lanes: usize,
    checkpoint_every: u64,
}

impl ServeArgs {
    fn parse() -> ServeArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{USAGE}");
            std::process::exit(0);
        }
        match ServeArgs::parse_from(args) {
            Ok(args) => args,
            Err(error) => {
                eprintln!("error: {error}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    fn parse_from<I>(args: I) -> Result<ServeArgs, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut socket = None;
        let mut store = None;
        let mut out = ServeArgs {
            socket: String::new(),
            store: String::new(),
            workers: 2,
            queue_limit: 64,
            slice_traces: 64,
            threads: 4,
            lanes: sca_campaign::DEFAULT_LANES,
            checkpoint_every: 64,
        };
        let mut args = args.into_iter().map(Into::into);
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| -> Result<String, String> {
                args.next()
                    .ok_or_else(|| format!("flag '{flag}' expects a value"))
            };
            match arg.as_str() {
                "--socket" => socket = Some(value(&arg)?),
                "--store" => store = Some(value(&arg)?),
                "--workers" => out.workers = parse_value(&arg, &value(&arg)?)?,
                "--queue-limit" => out.queue_limit = parse_value(&arg, &value(&arg)?)?,
                "--slice-traces" => out.slice_traces = parse_value(&arg, &value(&arg)?)?,
                "--threads" => out.threads = parse_value(&arg, &value(&arg)?)?,
                "--lanes" => out.lanes = parse_value(&arg, &value(&arg)?)?,
                "--checkpoint-every" => out.checkpoint_every = parse_value(&arg, &value(&arg)?)?,
                unknown => return Err(format!("unrecognized argument '{unknown}'")),
            }
        }
        out.socket = socket.ok_or("'--socket PATH' is required")?;
        out.store = store.ok_or("'--store DIR' is required")?;
        if out.workers == 0 {
            return Err("'--workers' must be at least 1".to_owned());
        }
        if out.queue_limit == 0 {
            return Err("'--queue-limit' must be at least 1".to_owned());
        }
        if out.slice_traces == 0 {
            return Err("'--slice-traces' must be at least 1".to_owned());
        }
        if out.threads == 0 {
            return Err("'--threads' must be at least 1".to_owned());
        }
        // The same bound, and the same message, as every other binary's
        // `--lanes` — enforced by the shared helper.
        validate_lanes(out.lanes).map_err(|e| e.to_string())?;
        if out.checkpoint_every == 0 {
            return Err("'--checkpoint-every' must be at least 1".to_owned());
        }
        Ok(out)
    }
}

fn parse_value<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("flag '{flag}' got unparsable value '{raw}'"))
}

#[cfg(unix)]
fn main() {
    use std::io::Write;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use sca_server::{
        format_event, format_stats, parse_request, read_line, CampaignServer, Event, LineError,
        Request, ServerConfig,
    };

    fn handle_connection(stream: UnixStream, server: &CampaignServer, stop: &AtomicBool) {
        let Ok(reader) = stream.try_clone() else {
            return;
        };
        let mut reader = std::io::BufReader::new(reader);
        let mut writer = stream;
        loop {
            let line = match read_line(&mut reader) {
                Ok(Some(line)) => line,
                Ok(None) | Err(LineError::Io(_)) => break,
                Err(e) => {
                    // The rest of the line stays unread: answer once and
                    // close rather than parse what follows it.
                    let _ = writeln!(writer, "rejected {e}");
                    break;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let written = match parse_request(&line) {
                Ok(Request::Submit { spec, weight }) => match server.submit(&spec, weight) {
                    Ok((_, events, _)) => {
                        let mut ok = true;
                        for event in &events {
                            let done = matches!(event, Event::Done { .. });
                            ok = writeln!(writer, "{}", format_event(&event)).is_ok();
                            if !ok || done {
                                break;
                            }
                        }
                        ok
                    }
                    Err(e) => writeln!(writer, "rejected {e}").is_ok(),
                },
                Ok(Request::Stats) => writeln!(writer, "{}", format_stats(&server.stats())).is_ok(),
                Ok(Request::Metrics) => {
                    let snap = server.metrics_snapshot();
                    let mut ok = true;
                    for line in sca_telemetry::render_wire(&snap) {
                        ok = writeln!(writer, "{line}").is_ok();
                        if !ok {
                            break;
                        }
                    }
                    ok && writeln!(writer, "metrics-end").is_ok()
                }
                Ok(Request::Shutdown) => {
                    stop.store(true, Ordering::SeqCst);
                    let _ = writeln!(writer, "stopping");
                    return;
                }
                Err(e) => writeln!(writer, "rejected {e}").is_ok(),
            };
            if !written {
                // The client hung up; any accepted job keeps running to
                // its durable store entry regardless.
                break;
            }
        }
    }

    let args = ServeArgs::parse();
    let mut config = ServerConfig::new(&args.store);
    config.workers = args.workers;
    config.queue_limit = args.queue_limit;
    config.slice_traces = args.slice_traces;
    config.threads_per_slice = args.threads;
    config.lanes = args.lanes;
    config.checkpoint_every = args.checkpoint_every;
    let server = Arc::new(CampaignServer::start(config));

    // A stale socket file from a crashed serve would make bind fail;
    // the store (not the socket) is the durable state, so replace it.
    let _ = std::fs::remove_file(&args.socket);
    let listener = match UnixListener::bind(&args.socket) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("error: cannot bind '{}': {e}", args.socket);
            std::process::exit(1);
        }
    };
    listener
        .set_nonblocking(true)
        .expect("nonblocking accept is available");
    eprintln!("serving on {} (store {})", args.socket, args.store);

    let stop = Arc::new(AtomicBool::new(false));
    let mut connections = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                connections.push(std::thread::spawn(move || {
                    handle_connection(stream, &server, &stop);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(e) => {
                eprintln!("error: accept failed: {e}");
                break;
            }
        }
    }
    for connection in connections {
        let _ = connection.join();
    }
    drop(listener);
    let _ = std::fs::remove_file(&args.socket);
    match Arc::try_unwrap(server) {
        Ok(server) => {
            let stats = server.shutdown();
            eprintln!("{}", format_stats(&stats));
        }
        // Unreachable once every connection thread has joined, but a
        // plain drop still drains via the server's Drop.
        Err(server) => drop(server),
    }
}

#[cfg(not(unix))]
fn main() {
    eprintln!("error: 'serve' requires unix-domain sockets");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServeArgs, String> {
        ServeArgs::parse_from(args.iter().copied().map(str::to_owned))
    }

    #[test]
    fn required_flags_and_defaults() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--socket", "s.sock"]).is_err());
        let args = parse(&["--socket", "s.sock", "--store", "corpus/"]).unwrap();
        assert_eq!(args.workers, 2);
        assert_eq!(args.queue_limit, 64);
        assert_eq!(args.slice_traces, 64);
        assert_eq!(args.lanes, sca_campaign::DEFAULT_LANES);
    }

    #[test]
    fn lanes_share_the_common_args_bounds() {
        // Regression companion to `sca_bench::args`' lanes test: the
        // serve front end funnels through the same `validate_lanes`.
        let base = ["--socket", "s.sock", "--store", "corpus/"];
        for bad in ["0", "9", "100"] {
            let mut argv = base.to_vec();
            argv.extend(["--lanes", bad]);
            let error = parse(&argv).unwrap_err();
            assert!(error.contains("--lanes"), "{error}");
        }
        let mut argv = base.to_vec();
        argv.extend(["--lanes", "8"]);
        assert_eq!(parse(&argv).unwrap().lanes, 8);
    }

    #[test]
    fn strict_rejection_of_unknown_flags_and_zeros() {
        let base = ["--socket", "s.sock", "--store", "corpus/"];
        for (flag, value) in [
            ("--workers", "0"),
            ("--queue-limit", "0"),
            ("--slice-traces", "0"),
            ("--threads", "0"),
            ("--checkpoint-every", "0"),
        ] {
            let mut argv = base.to_vec();
            argv.extend([flag, value]);
            let error = parse(&argv).unwrap_err();
            assert!(error.contains(flag), "{error}");
        }
        assert!(parse(&["--socket", "s", "--store", "d", "--sockets", "2"]).is_err());
    }
}
