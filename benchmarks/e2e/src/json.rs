//! JSON in and out.  Parsing is the vendored `serde_json` shim's; this file
//! adds the few lines needed to build and print a document model, since the
//! shim serialises typed values only.

pub use serde::JsonValue;
use std::collections::BTreeMap;

/// An object under construction.
#[derive(Default)]
pub struct Obj(BTreeMap<String, JsonValue>);

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    pub fn num(mut self, key: &str, v: f64) -> Obj {
        self.0.insert(key.into(), JsonValue::Number(v));
        self
    }

    pub fn str(mut self, key: &str, v: &str) -> Obj {
        self.0.insert(key.into(), JsonValue::String(v.into()));
        self
    }

    pub fn bool(mut self, key: &str, v: bool) -> Obj {
        self.0.insert(key.into(), JsonValue::Bool(v));
        self
    }

    pub fn val(mut self, key: &str, v: JsonValue) -> Obj {
        self.0.insert(key.into(), v);
        self
    }

    pub fn build(self) -> JsonValue {
        JsonValue::Object(self.0)
    }
}

pub fn nums(values: &[f64]) -> JsonValue {
    JsonValue::Array(values.iter().map(|v| JsonValue::Number(*v)).collect())
}

pub fn strs(values: &[String]) -> JsonValue {
    JsonValue::Array(values.iter().cloned().map(JsonValue::String).collect())
}

/// Numbers keep every digit Rust prints (shortest round-trip form); whole
/// numbers print without a fraction, non-finite ones as `null`.
fn write(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) if n.is_finite() => out.push_str(&n.to_string()),
        JsonValue::Number(_) => out.push_str("null"),
        JsonValue::String(s) => serde::write_json_string(s, out),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                serde::write_json_string(k, out);
                out.push(':');
                write(item, out);
            }
            out.push('}');
        }
    }
}

/// One-line JSON text.
pub fn compact(v: &JsonValue) -> String {
    let mut out = String::new();
    write(v, &mut out);
    out
}

/// Indented JSON text (for the committed result files).
pub fn pretty(v: &JsonValue) -> String {
    serde_json::to_string_pretty(&Raw(compact(v))).expect("own output parses")
}

/// Already-serialised JSON handed to the shim's pretty printer.
struct Raw(String);

impl serde::Serialize for Raw {
    fn json_into(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

pub fn parse(text: &str) -> Result<JsonValue, String> {
    serde_json::parse(text).map_err(|e| e.to_string())
}

// Typed readers; a missing or mistyped field is an error message, not a panic.

pub fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get_field(key).map_err(|e| e.to_string())
}

pub fn as_f64(v: &JsonValue) -> Result<f64, String> {
    match v {
        JsonValue::Number(n) => Ok(*n),
        other => Err(format!("expected number, found {other:?}")),
    }
}

pub fn as_str(v: &JsonValue) -> Result<&str, String> {
    match v {
        JsonValue::String(s) => Ok(s),
        other => Err(format!("expected string, found {other:?}")),
    }
}

pub fn as_array(v: &JsonValue) -> Result<&[JsonValue], String> {
    match v {
        JsonValue::Array(items) => Ok(items),
        other => Err(format!("expected array, found {other:?}")),
    }
}

pub fn as_object(v: &JsonValue) -> Result<&BTreeMap<String, JsonValue>, String> {
    match v {
        JsonValue::Object(map) => Ok(map),
        other => Err(format!("expected object, found {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_the_shim_parser() {
        let doc = Obj::new()
            .num("latency_ms", 1.2034)
            .num("count", 12.0)
            .str("unit", "ms \"quoted\"")
            .bool("correct", true)
            .val("pool", nums(&[1.0, 2.5]))
            .build();
        let text = compact(&doc);
        assert!(text.contains("\"count\":12,"), "{text}");
        let back = parse(&text).unwrap();
        assert_eq!(as_f64(field(&back, "latency_ms").unwrap()).unwrap(), 1.2034);
        assert_eq!(
            as_str(field(&back, "unit").unwrap()).unwrap(),
            "ms \"quoted\""
        );
        assert_eq!(as_array(field(&back, "pool").unwrap()).unwrap().len(), 2);
        assert_eq!(parse(&pretty(&doc)).unwrap(), back);
        assert!(field(&back, "missing").is_err());
    }
}
