//! The JSONL trace codec: one flat JSON object per line.
//!
//! Every line carries a `"type"` tag — either `"phase"` (a timed phase
//! duration) or a [`TraceEvent::kind`] name — followed by the event's
//! fields under their Rust names, in declaration order. The encoder is
//! the derived `Serialize` of [`TraceEvent`] with its variant wrapper
//! lifted into the `"type"` tag; the parser reads the line with
//! `serde_json` and rebuilds the variant field by field.
//!
//! Floats print as shortest round-trip `f64` text (an `f32` widens to
//! `f64` exactly) and non-finite values as the strings `"NaN"`, `"inf"`
//! and `"-inf"`, so `parse ∘ encode` is the identity to the bit
//! (proptested in `adaptivefl-trace`).

use serde::{Deserialize, Map, Serialize, Value};

use super::{status_name, Phase, TraceEvent};
use crate::transport::DeliveryStatus;

/// One line of a trace file.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceLine {
    /// A structured event.
    Event(TraceEvent),
    /// A phase duration sample.
    Phase {
        /// The phase that was timed.
        phase: Phase,
        /// Monotonic nanoseconds.
        nanos: u64,
    },
}

/// Codec error: what went wrong and on which input.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Encodes one line (without trailing newline).
pub fn encode_line(line: &TraceLine) -> String {
    let mut map = Map::new();
    match line {
        TraceLine::Phase { phase, nanos } => {
            map.insert("type".into(), "phase".to_value());
            map.insert("phase".into(), phase.name().to_value());
            map.insert("nanos".into(), nanos.to_value());
        }
        TraceLine::Event(event) => {
            map.insert("type".into(), event.kind().to_value());
            // The derive writes `{"Variant":{fields…}}`; lift the fields.
            let wrapped = event.to_value();
            let fields = wrapped
                .as_object()
                .and_then(|outer| outer.iter().next())
                .and_then(|(_, fields)| fields.as_object())
                .expect("TraceEvent serializes as a struct variant");
            for (key, value) in fields.iter() {
                map.insert(key.clone(), value.clone());
            }
        }
    }
    Value::Object(map).to_string()
}

/// Reads one field as `T`.
fn get<T: Deserialize>(map: &Map, key: &str) -> Result<T, ParseError> {
    let value = map
        .get(key)
        .ok_or_else(|| ParseError(format!("missing field {key:?}")))?;
    T::from_value(value).map_err(|e| ParseError(format!("field {key:?}: {e}")))
}

/// Reads a delivery status name back as its `'static` [`status_name`].
fn status(map: &Map) -> Result<&'static str, ParseError> {
    use DeliveryStatus::*;
    let name: String = get(map, "status")?;
    [Delivered, TrainingFailed, Dropped, Late, Crashed]
        .into_iter()
        .map(status_name)
        .find(|n| *n == name)
        .ok_or_else(|| ParseError(format!("unknown delivery status {name:?}")))
}

/// Parses one line previously produced by [`encode_line`].
pub fn parse_line(line: &str) -> Result<TraceLine, ParseError> {
    let value: Value = serde_json::from_str(line).map_err(|e| ParseError(e.to_string()))?;
    let f = value
        .as_object()
        .ok_or_else(|| ParseError("expected a JSON object".into()))?;
    let kind: String = get(f, "type")?;
    let event = match kind.as_str() {
        "phase" => {
            let name: String = get(f, "phase")?;
            let phase = Phase::from_name(&name)
                .ok_or_else(|| ParseError(format!("unknown phase {name:?}")))?;
            return Ok(TraceLine::Phase {
                phase,
                nanos: get(f, "nanos")?,
            });
        }
        "run_start" => TraceEvent::RunStart {
            method: get(f, "method")?,
            start_round: get(f, "start_round")?,
            rounds: get(f, "rounds")?,
        },
        "round_start" => TraceEvent::RoundStart {
            round: get(f, "round")?,
        },
        "round_end" => TraceEvent::RoundEnd {
            round: get(f, "round")?,
            sim_secs: get(f, "sim_secs")?,
            failures: get(f, "failures")?,
        },
        "dispatch" => TraceEvent::Dispatch {
            round: get(f, "round")?,
            client: get(f, "client")?,
            tag: get(f, "tag")?,
            params: get(f, "params")?,
        },
        "client_train" => TraceEvent::ClientTrain {
            round: get(f, "round")?,
            client: get(f, "client")?,
            tag: get(f, "tag")?,
            loss: get(f, "loss")?,
            samples: get(f, "samples")?,
            macs_per_sample: get(f, "macs_per_sample")?,
        },
        "collect" => TraceEvent::Collect {
            round: get(f, "round")?,
            client: get(f, "client")?,
            status: status(f)?,
            up_params: get(f, "up_params")?,
        },
        "layer_coverage" => TraceEvent::LayerCoverage {
            round: get(f, "round")?,
            layer: get(f, "layer")?,
            covered: get(f, "covered")?,
            total: get(f, "total")?,
            uploads: get(f, "uploads")?,
        },
        "rl_dispatch" => TraceEvent::RlDispatch {
            round: get(f, "round")?,
            client: get(f, "client")?,
            level: get(f, "level")?,
        },
        "rl_return" => TraceEvent::RlReturn {
            round: get(f, "round")?,
            client: get(f, "client")?,
            sent: get(f, "sent")?,
            returned: get(f, "returned")?,
        },
        "comm" => TraceEvent::Comm {
            round: get(f, "round")?,
            client: get(f, "client")?,
            bytes_down: get(f, "bytes_down")?,
            bytes_up: get(f, "bytes_up")?,
            status: status(f)?,
            straggled: get(f, "straggled")?,
        },
        "checkpoint_save" => TraceEvent::CheckpointSave {
            round: get(f, "round")?,
        },
        "checkpoint_load" => TraceEvent::CheckpointLoad {
            round: get(f, "round")?,
        },
        "eval" => TraceEvent::Eval {
            round: get(f, "round")?,
            full: get(f, "full")?,
        },
        other => return Err(ParseError(format!("unknown line type {other:?}"))),
    };
    Ok(TraceLine::Event(event))
}

/// Parses a whole trace document (newline-separated; blank lines are
/// skipped). Returns the first error with its 1-based line number.
pub fn parse_document(text: &str) -> Result<Vec<TraceLine>, ParseError> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed =
            parse_line(line).map_err(|e| ParseError(format!("line {}: {}", idx + 1, e.0)))?;
        out.push(parsed);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_roundtrip() {
        let lines = [
            TraceLine::Event(TraceEvent::RunStart {
                method: "AdaptiveFL+Greed".into(),
                start_round: 2,
                rounds: 30,
            }),
            TraceLine::Event(TraceEvent::ClientTrain {
                round: 3,
                client: 17,
                tag: 4,
                loss: 1.234_567_9,
                samples: 12,
                macs_per_sample: 987_654_321,
            }),
            TraceLine::Event(TraceEvent::RlReturn {
                round: 1,
                client: 5,
                sent: 4,
                returned: None,
            }),
            TraceLine::Event(TraceEvent::RlReturn {
                round: 1,
                client: 6,
                sent: 4,
                returned: Some(2),
            }),
            TraceLine::Event(TraceEvent::Comm {
                round: 0,
                client: 9,
                bytes_down: 1024,
                bytes_up: 0,
                status: "dropped",
                straggled: true,
            }),
            TraceLine::Phase {
                phase: Phase::Aggregate,
                nanos: u64::MAX,
            },
        ];
        for line in &lines {
            let text = encode_line(line);
            assert_eq!(&parse_line(&text).expect(&text), line, "{text}");
        }
    }

    /// One exact line per `type`: the keys are the field names, so a
    /// renamed field must show up here as a changed trace format.
    #[test]
    fn golden_lines() {
        let cases = [
            (
                TraceLine::Event(TraceEvent::RunStart {
                    method: "AdaptiveFL".into(),
                    start_round: 2,
                    rounds: 30,
                }),
                r#"{"type":"run_start","method":"AdaptiveFL","start_round":2,"rounds":30}"#,
            ),
            (
                TraceLine::Event(TraceEvent::RoundStart { round: 7 }),
                r#"{"type":"round_start","round":7}"#,
            ),
            (
                TraceLine::Event(TraceEvent::RoundEnd {
                    round: 7,
                    sim_secs: 12.5,
                    failures: 3,
                }),
                r#"{"type":"round_end","round":7,"sim_secs":12.5,"failures":3}"#,
            ),
            (
                TraceLine::Event(TraceEvent::Dispatch {
                    round: 1,
                    client: 5,
                    tag: 4,
                    params: 123_456,
                }),
                r#"{"type":"dispatch","round":1,"client":5,"tag":4,"params":123456}"#,
            ),
            (
                TraceLine::Event(TraceEvent::ClientTrain {
                    round: 1,
                    client: 5,
                    tag: 2,
                    loss: std::f32::consts::LN_10,
                    samples: 40,
                    macs_per_sample: 987_654_321,
                }),
                r#"{"type":"client_train","round":1,"client":5,"tag":2,"loss":2.3025851249694824,"samples":40,"macs_per_sample":987654321}"#,
            ),
            (
                TraceLine::Event(TraceEvent::Collect {
                    round: 1,
                    client: 5,
                    status: "training_failed",
                    up_params: 0,
                }),
                r#"{"type":"collect","round":1,"client":5,"status":"training_failed","up_params":0}"#,
            ),
            (
                TraceLine::Event(TraceEvent::LayerCoverage {
                    round: 1,
                    layer: "features.0.weight".into(),
                    covered: 864,
                    total: 1728,
                    uploads: 6,
                }),
                r#"{"type":"layer_coverage","round":1,"layer":"features.0.weight","covered":864,"total":1728,"uploads":6}"#,
            ),
            (
                TraceLine::Event(TraceEvent::RlDispatch {
                    round: 1,
                    client: 5,
                    level: 2,
                }),
                r#"{"type":"rl_dispatch","round":1,"client":5,"level":2}"#,
            ),
            (
                TraceLine::Event(TraceEvent::RlReturn {
                    round: 1,
                    client: 5,
                    sent: 4,
                    returned: None,
                }),
                r#"{"type":"rl_return","round":1,"client":5,"sent":4,"returned":null}"#,
            ),
            (
                TraceLine::Event(TraceEvent::Comm {
                    round: 1,
                    client: 5,
                    bytes_down: 4096,
                    bytes_up: 2048,
                    status: "late",
                    straggled: true,
                }),
                r#"{"type":"comm","round":1,"client":5,"bytes_down":4096,"bytes_up":2048,"status":"late","straggled":true}"#,
            ),
            (
                TraceLine::Event(TraceEvent::CheckpointSave { round: 10 }),
                r#"{"type":"checkpoint_save","round":10}"#,
            ),
            (
                TraceLine::Event(TraceEvent::CheckpointLoad { round: 10 }),
                r#"{"type":"checkpoint_load","round":10}"#,
            ),
            (
                TraceLine::Event(TraceEvent::Eval {
                    round: 9,
                    full: f32::NEG_INFINITY,
                }),
                r#"{"type":"eval","round":9,"full":"-inf"}"#,
            ),
            (
                TraceLine::Phase {
                    phase: Phase::ClientTrain,
                    nanos: 1_500_000,
                },
                r#"{"type":"phase","phase":"client_train","nanos":1500000}"#,
            ),
        ];
        for (line, golden) in &cases {
            assert_eq!(encode_line(line), *golden);
            assert_eq!(&parse_line(golden).unwrap(), line, "{golden}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let line = TraceLine::Event(TraceEvent::LayerCoverage {
            round: 0,
            layer: "weird\"layer\\name\n\ttab\u{1}é".into(),
            covered: 1,
            total: 2,
            uploads: 3,
        });
        let text = encode_line(&line);
        assert_eq!(parse_line(&text).unwrap(), line);
    }

    #[test]
    fn nonfinite_floats_roundtrip() {
        for v in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let line = TraceLine::Event(TraceEvent::Eval { round: 0, full: v });
            let text = encode_line(&line);
            let TraceLine::Event(TraceEvent::Eval { full, .. }) = parse_line(&text).unwrap() else {
                panic!("wrong variant from {text}");
            };
            assert_eq!(full.to_bits(), v.to_bits(), "{text}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "{}",
            "not json",
            r#"{"type":"nope"}"#,
            r#"{"type":"round_start"}"#,
            r#"{"type":"round_start","round":"three"}"#,
            r#"{"type":"phase","phase":"warp","nanos":1}"#,
            r#"{"type":"collect","round":0,"client":1,"status":"exploded","up_params":0}"#,
            r#"{"type":"round_start","round":1}trailing"#,
        ] {
            assert!(parse_line(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn document_reports_line_numbers() {
        let doc = format!(
            "{}\n\n{}\nbroken\n",
            encode_line(&TraceLine::Event(TraceEvent::RoundStart { round: 0 })),
            encode_line(&TraceLine::Phase {
                phase: Phase::Round,
                nanos: 5
            }),
        );
        let e = parse_document(&doc).unwrap_err();
        assert!(e.0.starts_with("line 4:"), "{e}");
        let ok = parse_document(&doc[..doc.len() - "broken\n".len()]).unwrap();
        assert_eq!(ok.len(), 2);
    }
}
