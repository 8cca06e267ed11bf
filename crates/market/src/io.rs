//! Trace import/export.
//!
//! The paper seeds its simulations with published EC2 spot-price history.
//! This module reads and writes that style of data as CSV so users can run
//! the scheduler against *real* archives instead of the synthetic
//! generator: one file per market, rows of `timestamp_ms,price`, plus a
//! small manifest naming the market and horizon.
//!
//! Format of a trace file:
//!
//! ```csv
//! # market: us-east-1a/small
//! # horizon_ms: 2419200000
//! timestamp_ms,price
//! 0,0.012
//! 3600000,0.013
//! ```

use crate::catalog::Catalog;
use crate::gen::TraceSet;
use crate::time::{SimTime, MILLIS_PER_HOUR};
use crate::trace::{PricePoint, PriceTrace};
use crate::types::{InstanceType, MarketId, Zone};
use std::fmt::Write as _;
use std::path::Path;

/// Errors from trace parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceIoError {
    MissingHeader(&'static str),
    UnknownMarket(String),
    BadRow {
        line: usize,
        reason: String,
    },
    Empty,
    /// Two trace files in one directory name the same market.
    DuplicateMarket(MarketId),
    Io(String),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::MissingHeader(h) => write!(f, "missing '# {h}:' header"),
            TraceIoError::UnknownMarket(m) => write!(f, "unknown market '{m}'"),
            TraceIoError::BadRow { line, reason } => write!(f, "line {line}: {reason}"),
            TraceIoError::Empty => write!(f, "trace has no price rows"),
            TraceIoError::DuplicateMarket(m) => write!(f, "two trace files name market '{m}'"),
            TraceIoError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

/// Parse a market name of the form `zone/size` (e.g. `us-east-1a/small`).
pub fn parse_market(name: &str) -> Result<MarketId, TraceIoError> {
    let (zone_s, size_s) = name
        .split_once('/')
        .ok_or_else(|| TraceIoError::UnknownMarket(name.to_string()))?;
    let zone = Zone::ALL
        .into_iter()
        .find(|z| z.name() == zone_s)
        .ok_or_else(|| TraceIoError::UnknownMarket(name.to_string()))?;
    let itype = InstanceType::ALL
        .into_iter()
        .find(|t| t.name() == size_s)
        .ok_or_else(|| TraceIoError::UnknownMarket(name.to_string()))?;
    Ok(MarketId::new(zone, itype))
}

/// Serialise one market's trace to the CSV format above.
pub fn trace_to_csv(market: MarketId, trace: &PriceTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# market: {market}");
    let _ = writeln!(out, "# horizon_ms: {}", trace.end().as_millis());
    out.push_str("timestamp_ms,price\n");
    for p in trace.points() {
        let _ = writeln!(out, "{},{}", p.at.as_millis(), p.price);
    }
    out
}

/// Parse one market's trace from the CSV format above.
pub fn trace_from_csv(text: &str) -> Result<(MarketId, PriceTrace), TraceIoError> {
    let mut market = None;
    let mut horizon_ms = None;
    let mut points = Vec::new();
    // Latest timestamp seen and its line, to blame if no horizon fits.
    let mut latest = (0u64, 0usize);
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim();
            if let Some(m) = rest.strip_prefix("market:") {
                market = Some(parse_market(m.trim())?);
            } else if let Some(h) = rest.strip_prefix("horizon_ms:") {
                horizon_ms = Some(h.trim().parse::<u64>().map_err(|e| TraceIoError::BadRow {
                    line: i + 1,
                    reason: format!("bad horizon: {e}"),
                })?);
            }
            continue;
        }
        if line.starts_with("timestamp_ms") {
            continue; // column header
        }
        let (ts, price) = line.split_once(',').ok_or_else(|| TraceIoError::BadRow {
            line: i + 1,
            reason: "expected 'timestamp_ms,price'".into(),
        })?;
        let at = ts.trim().parse::<u64>().map_err(|e| TraceIoError::BadRow {
            line: i + 1,
            reason: format!("bad timestamp: {e}"),
        })?;
        let price = price
            .trim()
            .parse::<f64>()
            .map_err(|e| TraceIoError::BadRow {
                line: i + 1,
                reason: format!("bad price: {e}"),
            })?;
        if !(price.is_finite() && price > 0.0) {
            return Err(TraceIoError::BadRow {
                line: i + 1,
                reason: format!("price must be positive, got {price}"),
            });
        }
        if at >= latest.0 {
            latest = (at, i + 1);
        }
        points.push(PricePoint {
            at: SimTime::millis(at),
            price,
        });
    }
    let market = market.ok_or(TraceIoError::MissingHeader("market"))?;
    if points.is_empty() {
        return Err(TraceIoError::Empty);
    }
    // Normalise: sort, dedupe timestamps (last wins, like EC2 re-posts),
    // anchor at t=0.
    points.sort_by_key(|p| p.at);
    points.dedup_by(|b, a| {
        if a.at == b.at {
            a.price = b.price;
            true
        } else {
            false
        }
    });
    if points[0].at != SimTime::ZERO {
        let first_price = points[0].price;
        points.insert(
            0,
            PricePoint {
                at: SimTime::ZERO,
                price: first_price,
            },
        );
        points.dedup_by_key(|p| p.at);
    }
    // The horizon defaults to an hour past the last change and must lie
    // after it; a timestamp too close to `u64::MAX` leaves no room.
    let last = latest.0;
    let horizon = horizon_ms
        .or_else(|| last.checked_add(MILLIS_PER_HOUR))
        .zip(last.checked_add(1))
        .map(|(h, min)| h.max(min))
        .ok_or_else(|| TraceIoError::BadRow {
            line: latest.1,
            reason: format!("timestamp {last} leaves no room for the trace horizon"),
        })?;
    Ok((market, PriceTrace::new(points, SimTime::millis(horizon))))
}

/// Write a whole trace set to `dir`, one `<zone>_<size>.csv` per market.
pub fn write_trace_set(set: &TraceSet, dir: &Path) -> Result<(), TraceIoError> {
    std::fs::create_dir_all(dir).map_err(|e| TraceIoError::Io(e.to_string()))?;
    for (market, trace) in set.iter() {
        let name = format!("{}_{}.csv", market.zone.name(), market.itype.name());
        std::fs::write(dir.join(name), trace_to_csv(market, trace))
            .map_err(|e| TraceIoError::Io(e.to_string()))?;
    }
    Ok(())
}

/// Load a trace set from every `*.csv` in `dir`. All traces are clipped or
/// extended (by their last price) to the shortest common horizon so the
/// set is rectangular.
pub fn read_trace_set(catalog: &Catalog, dir: &Path) -> Result<TraceSet, TraceIoError> {
    let mut parsed: Vec<(MarketId, PriceTrace)> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| TraceIoError::Io(e.to_string()))?;
    for entry in entries {
        let entry = entry.map_err(|e| TraceIoError::Io(e.to_string()))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("csv") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| TraceIoError::Io(e.to_string()))?;
        let (market, trace) = trace_from_csv(&text)?;
        if parsed.iter().any(|(m, _)| *m == market) {
            return Err(TraceIoError::DuplicateMarket(market));
        }
        parsed.push((market, trace));
    }
    if parsed.is_empty() {
        return Err(TraceIoError::Empty);
    }
    let horizon = parsed
        .iter()
        .map(|(_, t)| t.end())
        .min()
        .expect("non-empty");
    let clipped: Vec<(MarketId, PriceTrace)> = parsed
        .into_iter()
        .map(|(m, t)| {
            let points: Vec<PricePoint> = t
                .points()
                .iter()
                .filter(|p| p.at < horizon)
                .copied()
                .collect();
            (m, PriceTrace::new(points, horizon))
        })
        .collect();
    Ok(TraceSet::from_traces(
        catalog,
        clipped,
        horizon - SimTime::ZERO,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn sample_market() -> MarketId {
        MarketId::new(Zone::UsEast1a, InstanceType::Small)
    }

    fn sample_trace() -> PriceTrace {
        PriceTrace::new(
            vec![
                PricePoint {
                    at: SimTime::ZERO,
                    price: 0.012,
                },
                PricePoint {
                    at: SimTime::hours(1),
                    price: 0.09,
                },
                PricePoint {
                    at: SimTime::hours(2),
                    price: 0.011,
                },
            ],
            SimTime::hours(24),
        )
    }

    #[test]
    fn csv_roundtrip() {
        let csv = trace_to_csv(sample_market(), &sample_trace());
        let (market, trace) = trace_from_csv(&csv).unwrap();
        assert_eq!(market, sample_market());
        assert_eq!(trace, sample_trace());
    }

    #[test]
    fn parse_market_names() {
        assert_eq!(parse_market("us-east-1a/small").unwrap(), sample_market());
        assert_eq!(
            parse_market("eu-west-1a/xlarge").unwrap(),
            MarketId::new(Zone::EuWest1a, InstanceType::XLarge)
        );
        assert!(parse_market("mars-1a/small").is_err());
        assert!(parse_market("us-east-1a/tiny").is_err());
        assert!(parse_market("no-slash").is_err());
    }

    #[test]
    fn parser_normalises_unsorted_and_offset_rows() {
        let csv = "\
# market: us-east-1a/small
# horizon_ms: 7200000
timestamp_ms,price
3600000,0.02
600000,0.01
";
        let (_, trace) = trace_from_csv(csv).unwrap();
        // Anchored at zero with the earliest price.
        assert_eq!(trace.price_at(SimTime::ZERO), 0.01);
        assert_eq!(trace.price_at(SimTime::hours(1)), 0.02);
        assert_eq!(trace.end(), SimTime::hours(2));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(matches!(
            trace_from_csv("timestamp_ms,price\n0,0.01"),
            Err(TraceIoError::MissingHeader("market"))
        ));
        let bad_price = "# market: us-east-1a/small\n0,-1.0\n";
        assert!(matches!(
            trace_from_csv(bad_price),
            Err(TraceIoError::BadRow { .. })
        ));
        let no_rows = "# market: us-east-1a/small\ntimestamp_ms,price\n";
        assert!(matches!(trace_from_csv(no_rows), Err(TraceIoError::Empty)));
        // No horizon fits after a change at the last representable
        // millisecond, nor does the default hour after one near it.
        let at_max = "# market: us-east-1a/small\n0,0.01\n18446744073709551615,0.02\n";
        assert!(matches!(
            trace_from_csv(at_max),
            Err(TraceIoError::BadRow { line: 3, .. })
        ));
        let near_max = "# market: us-east-1a/small\n18446744073709551000,0.02\n";
        assert!(matches!(
            trace_from_csv(near_max),
            Err(TraceIoError::BadRow { line: 2, .. })
        ));
    }

    #[test]
    fn duplicate_timestamps_last_wins() {
        let csv = "\
# market: us-east-1a/small
0,0.01
0,0.02
3600000,0.03
";
        let (_, trace) = trace_from_csv(csv).unwrap();
        assert_eq!(trace.price_at(SimTime::ZERO), 0.02);
    }

    #[test]
    fn directory_roundtrip() {
        let dir = std::env::temp_dir().join(format!("spothost-io-test-{}", std::process::id()));
        let catalog = Catalog::ec2_2015();
        let markets = MarketId::all_in_zone(Zone::UsEast1a);
        let set = TraceSet::generate(&catalog, &markets, 5, SimDuration::days(3));
        write_trace_set(&set, &dir).unwrap();
        let loaded = read_trace_set(&catalog, &dir).unwrap();
        assert_eq!(loaded.len(), set.len());
        for m in &markets {
            assert_eq!(loaded.trace(*m).unwrap(), set.trace(*m).unwrap(), "{m}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directory_with_duplicate_market_is_an_error() {
        let dir = std::env::temp_dir().join(format!("spothost-io-test3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = trace_to_csv(sample_market(), &sample_trace());
        std::fs::write(dir.join("a.csv"), &csv).unwrap();
        std::fs::write(dir.join("b.csv"), &csv).unwrap();
        let loaded = read_trace_set(&Catalog::ec2_2015(), &dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            loaded.err(),
            Some(TraceIoError::DuplicateMarket(sample_market()))
        );
    }

    #[test]
    fn loaded_traces_drive_the_generator_free_path() {
        // A loaded set must be usable everywhere a generated one is.
        let dir = std::env::temp_dir().join(format!("spothost-io-test2-{}", std::process::id()));
        let catalog = Catalog::ec2_2015();
        let set = TraceSet::generate(&catalog, &[sample_market()], 5, SimDuration::days(2));
        write_trace_set(&set, &dir).unwrap();
        let loaded = read_trace_set(&catalog, &dir).unwrap();
        let t = loaded.trace(sample_market()).unwrap();
        assert!(t.time_weighted_mean() > 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
