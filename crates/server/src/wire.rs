//! The line protocol: one request or event per line, `key=value`
//! fields, strictly parsed.
//!
//! Requests (client → server):
//!
//! ```text
//! submit tenant=ci target=aes128 analysis=hw traces=150 executions=2 \
//!        seed=0xdac2018 noise-sd=2.0 noise-baseline=30.0 weight=3
//! stats
//! shutdown
//! ```
//!
//! `tenant`, `target`, `analysis` and `traces` are required; the rest
//! default to the one-shot portfolio's defaults. Unknown keys,
//! duplicate keys and malformed values are rejected — a CI fleet wants
//! its typos loud.
//!
//! Events (server → client) are formatted by [`format_event`]; the
//! `final` line carries the portfolio-format verdict verbatim after its
//! `job=` field, so clients can diff it byte-for-byte against one-shot
//! pins.
//!
//! A connection reads its request lines through [`read_line`], which
//! buffers at most [`MAX_LINE`] bytes per line and refuses a longer or
//! non-UTF-8 line with a typed [`LineError`].

use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, Read};

use sca_power::GaussianNoise;

use crate::{
    AnalysisSel, CampaignSpec, Disclosure, Event, ProgressDetail, ServerError, ServerStats,
};

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a campaign spec (with an optional tenant weight).
    Submit {
        /// The spec.
        spec: CampaignSpec,
        /// Fair-share weight for the spec's tenant.
        weight: Option<u32>,
    },
    /// Ask for the stats line.
    Stats,
    /// Ask for the full metrics dump (`metric <name>=<value>` lines,
    /// terminated by `metrics-end`).
    Metrics,
    /// Drain and stop the server.
    Shutdown,
}

/// Longest request line, its newline included, that [`read_line`]
/// accepts; a full `submit` line is under 300 bytes.
pub const MAX_LINE: usize = 4096;

/// Why [`read_line`] could not return a request line.
#[derive(Debug)]
pub enum LineError {
    /// The line ran past [`MAX_LINE`] bytes without a newline.
    TooLong,
    /// The line is not UTF-8.
    NotUtf8,
    /// Reading the connection failed.
    Io(std::io::Error),
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineError::TooLong => write!(f, "bad line: longer than {MAX_LINE} bytes"),
            LineError::NotUtf8 => write!(f, "bad line: not UTF-8"),
            LineError::Io(e) => write!(f, "bad line: {e}"),
        }
    }
}

impl std::error::Error for LineError {}

/// Reads one request line from `reader`, without its `\n` or `\r\n`;
/// `None` at the end of the stream. A last line without a newline
/// still counts. At most [`MAX_LINE`] bytes are buffered, however long
/// the line.
///
/// # Errors
///
/// [`LineError::TooLong`] once [`MAX_LINE`] bytes hold no newline (the
/// rest of the line stays unread), [`LineError::NotUtf8`], and read
/// failures as [`LineError::Io`].
pub fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, LineError> {
    let mut line = Vec::new();
    reader
        .take(MAX_LINE as u64)
        .read_until(b'\n', &mut line)
        .map_err(LineError::Io)?;
    if line.is_empty() {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.len() == MAX_LINE {
        return Err(LineError::TooLong);
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| LineError::NotUtf8)
}

fn parse_u64(key: &str, value: &str) -> Result<u64, ServerError> {
    let parsed = if let Some(hex) = value.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        value.parse()
    };
    parsed.map_err(|_| ServerError::Spec(format!("{key} must be an integer, got '{value}'")))
}

fn parse_f64(key: &str, value: &str) -> Result<f64, ServerError> {
    value
        .parse()
        .map_err(|_| ServerError::Spec(format!("{key} must be a number, got '{value}'")))
}

/// Parses one request line.
///
/// # Errors
///
/// [`ServerError::Spec`] with a client-facing message on any deviation:
/// unknown verb, unknown/duplicate/missing keys, malformed values.
pub fn parse_request(line: &str) -> Result<Request, ServerError> {
    let mut tokens = line.split_whitespace();
    let verb = tokens
        .next()
        .ok_or_else(|| ServerError::Spec("empty request".to_owned()))?;
    let mut fields: HashMap<&str, &str> = HashMap::new();
    for token in tokens {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| ServerError::Spec(format!("expected key=value, got '{token}'")))?;
        if fields.insert(key, value).is_some() {
            return Err(ServerError::Spec(format!("duplicate key '{key}'")));
        }
    }
    match verb {
        "submit" => parse_submit(&mut fields),
        "stats" | "metrics" | "shutdown" => {
            if let Some(key) = fields.keys().next() {
                return Err(ServerError::Spec(format!(
                    "'{verb}' takes no fields, got '{key}'"
                )));
            }
            Ok(match verb {
                "stats" => Request::Stats,
                "metrics" => Request::Metrics,
                _ => Request::Shutdown,
            })
        }
        other => Err(ServerError::Spec(format!("unknown request '{other}'"))),
    }
}

fn parse_submit(fields: &mut HashMap<&str, &str>) -> Result<Request, ServerError> {
    let mut take = |key: &str| fields.remove(key).map(str::to_owned);
    let required = |key: &str, value: Option<String>| {
        value.ok_or_else(|| ServerError::Spec(format!("missing required key '{key}'")))
    };
    let tenant = required("tenant", take("tenant"))?;
    let target = required("target", take("target"))?;
    let analysis = AnalysisSel::parse(&required("analysis", take("analysis"))?)?;
    let traces = parse_u64("traces", &required("traces", take("traces"))?)?;
    let executions_per_trace = take("executions")
        .map(|v| parse_u64("executions", &v))
        .transpose()?
        .unwrap_or(8);
    let seed = take("seed")
        .map(|v| parse_u64("seed", &v))
        .transpose()?
        .unwrap_or(0xdac_2018);
    let bare = GaussianNoise::bare_metal();
    let sd = take("noise-sd")
        .map(|v| parse_f64("noise-sd", &v))
        .transpose()?
        .unwrap_or(bare.sd);
    let baseline = take("noise-baseline")
        .map(|v| parse_f64("noise-baseline", &v))
        .transpose()?
        .unwrap_or(bare.baseline);
    let weight = take("weight")
        .map(|v| parse_u64("weight", &v))
        .transpose()?
        .map(|w| u32::try_from(w).unwrap_or(u32::MAX));
    if let Some(key) = fields.keys().next() {
        return Err(ServerError::Spec(format!("unknown key '{key}'")));
    }
    Ok(Request::Submit {
        spec: CampaignSpec {
            tenant,
            target,
            analysis,
            traces,
            executions_per_trace,
            seed,
            noise: GaussianNoise { sd, baseline },
        },
        weight,
    })
}

/// Formats one event as its wire line.
#[must_use]
pub fn format_event(event: &Event) -> String {
    match event {
        Event::Accepted { job, coalesced } => {
            format!("accepted job={job} coalesced={coalesced}")
        }
        Event::Progress { job, snapshot } => {
            let head = format!(
                "progress job={job} traces={}/{}",
                snapshot.traces, snapshot.total
            );
            match &snapshot.detail {
                ProgressDetail::Cpa {
                    rank,
                    peak,
                    disclosure,
                } => {
                    let disclosure = match disclosure {
                        Disclosure::Measured(at) => format!("{at}"),
                        Disclosure::Estimated(n) => format!("~{n}"),
                        Disclosure::Pending => "pending".to_owned(),
                    };
                    format!("{head} rank={rank} peak={peak:.6} disclosure={disclosure}")
                }
                ProgressDetail::Tvla { max_t } => match max_t {
                    Some(t) => format!("{head} max-t={t:.6}"),
                    None => format!("{head} max-t=pending"),
                },
            }
        }
        Event::Final { job, line } => format!("final job={job} {line}"),
        Event::Failed { job, message } => format!("failed job={job} {message}"),
        Event::Done { job } => format!("done job={job}"),
    }
}

/// Formats the stats line. New fields are only ever appended, so
/// clients splitting on `key=value` pairs keep working.
#[must_use]
pub fn format_stats(stats: &ServerStats) -> String {
    format!(
        "stats submitted={} coalesced={} rejected={} completed={} failed={} \
         slices={} store-served={} queue-peak={}",
        stats.submitted,
        stats.coalesced,
        stats.rejected,
        stats.completed,
        stats.failed,
        stats.slices,
        stats.store_served,
        stats.queue_peak,
    )
}

/// The bare verdict carried by a `final` event line, if `line` is one —
/// the exact text the one-shot portfolio prints for the same spec.
#[must_use]
pub fn final_verdict(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("final job=")?;
    let (_, verdict) = rest.split_once(' ')?;
    Some(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_roundtrips_with_defaults() {
        let req = parse_request(
            "submit tenant=ci target=aes128 analysis=hw traces=150 \
             executions=2 seed=0xdac2018 noise-sd=2.0 noise-baseline=30.0",
        )
        .expect("valid line");
        let Request::Submit { spec, weight } = req else {
            panic!("not a submit");
        };
        assert_eq!(spec, CampaignSpec::quick("ci"));
        assert_eq!(weight, None);

        // Defaults: portfolio's executions/seed/noise.
        let Request::Submit { spec, .. } =
            parse_request("submit tenant=t target=present80 analysis=tvla traces=20").unwrap()
        else {
            panic!("not a submit");
        };
        assert_eq!(spec.executions_per_trace, 8);
        assert_eq!(spec.seed, 0xdac_2018);
        assert_eq!(spec.noise, GaussianNoise::bare_metal());
    }

    #[test]
    fn strict_parsing_rejects_deviations() {
        for bad in [
            "",
            "submit",
            "submit tenant=t target=aes128 analysis=hw",
            "submit tenant=t target=aes128 analysis=hw traces=abc",
            "submit tenant=t target=aes128 analysis=hw traces=10 traces=20",
            "submit tenant=t target=aes128 analysis=hw traces=10 lanes=2",
            "submit tenant=t target=aes128 analysis=cpa traces=10",
            "submit orphan",
            "stats verbose=yes",
            "metrics format=json",
            "reboot",
        ] {
            assert!(parse_request(bad).is_err(), "accepted: '{bad}'");
        }
        assert_eq!(parse_request("stats").unwrap(), Request::Stats);
        assert_eq!(parse_request("metrics").unwrap(), Request::Metrics);
        assert_eq!(parse_request("shutdown").unwrap(), Request::Shutdown);
    }

    #[test]
    fn read_line_caps_and_types_its_failures() {
        use std::io::Cursor;
        let mut lines = Cursor::new(b"stats\r\nshutdown\n\nlast".to_vec());
        for want in ["stats", "shutdown", "", "last"] {
            assert_eq!(read_line(&mut lines).unwrap().as_deref(), Some(want));
        }
        assert!(read_line(&mut lines).unwrap().is_none());

        // A megabyte without a newline: refused after MAX_LINE bytes.
        let mut long = Cursor::new(vec![b'x'; 1 << 20]);
        assert!(matches!(read_line(&mut long), Err(LineError::TooLong)));
        assert_eq!(long.position(), MAX_LINE as u64);
        // The longest line accepted, newline included, and one past it.
        let mut longest = vec![b'y'; MAX_LINE - 1];
        longest.push(b'\n');
        let read = read_line(&mut Cursor::new(longest.clone())).unwrap();
        assert_eq!(read.map(|l| l.len()), Some(MAX_LINE - 1));
        longest.insert(0, b'y');
        assert!(matches!(
            read_line(&mut Cursor::new(longest)),
            Err(LineError::TooLong)
        ));

        let mut invalid = Cursor::new(b"submit tenant=\xff\xfe\nstats\n".to_vec());
        assert!(matches!(read_line(&mut invalid), Err(LineError::NotUtf8)));
        assert_eq!(LineError::NotUtf8.to_string(), "bad line: not UTF-8");
        assert_eq!(
            LineError::TooLong.to_string(),
            format!("bad line: longer than {MAX_LINE} bytes")
        );
    }

    #[test]
    fn final_lines_carry_the_bare_verdict() {
        let line = "final job=3 [aes128] HW(SubBytes): SUCCESS (recovered 0x7e, true 0x7e, rank 0)";
        assert_eq!(
            final_verdict(line),
            Some("[aes128] HW(SubBytes): SUCCESS (recovered 0x7e, true 0x7e, rank 0)")
        );
        assert_eq!(final_verdict("done job=3"), None);
    }
}
