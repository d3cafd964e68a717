//! The `/v1` wire protocol: request parsing and response rendering.
//!
//! Bodies are JSON, parsed with the workspace's dependency-free
//! [`mnc_obs::json`] parser and rendered by hand. Floating-point results go
//! through [`json_f64`] — the shortest round-trip representation — so a
//! client parsing the response recovers the **bit-exact** `f64` the
//! estimator produced.
//!
//! Binary sketch payloads travel as raw MNCS bytes
//! (`application/octet-stream`) on ingest/export and as lowercase hex in
//! JSON responses (`"sketch_hex"`).

use mnc_core::OpKind;
use mnc_matrix::CsrMatrix;
use mnc_obs::export::{json_escape, json_f64};
use mnc_obs::json::{parse, JsonValue};

use crate::error::ServiceError;
use crate::walk::{DagSpec, EstimateOutcome, NodeSpec};

/// A parsed `POST /v1/estimate` body.
#[derive(Debug, Clone)]
pub struct EstimateRequest {
    /// Caller-chosen client label (`"default"` when absent). Accepted and
    /// type-checked; it keys no server state.
    pub client: String,
    /// The expression to estimate.
    pub dag: DagSpec,
    /// Whether to return the propagated root sketch.
    pub include_sketch: bool,
}

fn bad(msg: impl Into<String>) -> ServiceError {
    ServiceError::BadRequest(msg.into())
}

fn parse_body(body: &[u8]) -> Result<JsonValue, ServiceError> {
    let text = std::str::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    parse(text).map_err(|e| bad(format!("invalid JSON: {e}")))
}

/// An exactly-representable non-negative integer, or an error naming the
/// field.
fn as_index(v: &JsonValue, field: &str) -> Result<usize, ServiceError> {
    match v {
        JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 2f64.powi(53) => {
            Ok(*n as usize)
        }
        _ => Err(bad(format!("`{field}` must be a non-negative integer"))),
    }
}

fn as_array<'a>(v: &'a JsonValue, field: &str) -> Result<&'a [JsonValue], ServiceError> {
    match v {
        JsonValue::Array(items) => Ok(items),
        _ => Err(bad(format!("`{field}` must be an array"))),
    }
}

fn index_array(v: &JsonValue, field: &str) -> Result<Vec<usize>, ServiceError> {
    as_array(v, field)?
        .iter()
        .map(|x| as_index(x, field))
        .collect()
}

/// Parses an operation name plus optional `rows`/`cols` (for `reshape`)
/// from the fields of a node object.
fn parse_op(name: &str, node: &JsonValue) -> Result<OpKind, ServiceError> {
    Ok(match name {
        "matmul" | "mm" => OpKind::MatMul,
        "ew_add" | "ewadd" | "+" => OpKind::EwAdd,
        "ew_mul" | "ewmul" | "*" => OpKind::EwMul,
        "ew_max" | "ewmax" | "max" => OpKind::EwMax,
        "ew_min" | "ewmin" | "min" => OpKind::EwMin,
        "transpose" | "t" => OpKind::Transpose,
        "reshape" => {
            let rows = node
                .get("rows")
                .ok_or_else(|| bad("reshape needs `rows`"))
                .and_then(|v| as_index(v, "rows"))?;
            let cols = node
                .get("cols")
                .ok_or_else(|| bad("reshape needs `cols`"))
                .and_then(|v| as_index(v, "cols"))?;
            OpKind::Reshape { rows, cols }
        }
        "diag_v2m" => OpKind::DiagV2M,
        "diag_m2v" => OpKind::DiagM2V,
        "rbind" => OpKind::Rbind,
        "cbind" => OpKind::Cbind,
        "neq0" => OpKind::Neq0,
        "eq0" => OpKind::Eq0,
        other => return Err(bad(format!("unknown op `{other}`"))),
    })
}

/// Parses a `POST /v1/estimate` body. Two forms are accepted:
///
/// * shorthand — one operation over named matrices:
///   `{"op": "matmul", "inputs": ["A", "B"]}`;
/// * general — an explicit DAG with operation inputs referring to earlier
///   node indices:
///   `{"dag": [{"leaf": "A"}, {"leaf": "B"},
///             {"op": "matmul", "inputs": [0, 1]}], "root": 2}`
///   (`root` defaults to the last node).
///
/// Optional in both: `"client"` (a string label, validated but keying
/// nothing) and `"include_sketch"`.
pub fn parse_estimate_request(body: &[u8]) -> Result<EstimateRequest, ServiceError> {
    let v = parse_body(body)?;
    let client = match v.get("client") {
        None => "default".to_string(),
        Some(c) => c
            .as_str()
            .ok_or_else(|| bad("`client` must be a string"))?
            .to_string(),
    };
    let include_sketch = match v.get("include_sketch") {
        None => false,
        Some(JsonValue::Bool(b)) => *b,
        Some(_) => return Err(bad("`include_sketch` must be a boolean")),
    };

    let dag = if let Some(nodes) = v.get("dag") {
        let items = as_array(nodes, "dag")?;
        let mut spec = Vec::with_capacity(items.len());
        for (idx, item) in items.iter().enumerate() {
            if let Some(leaf) = item.get("leaf") {
                let name = leaf
                    .as_str()
                    .ok_or_else(|| bad(format!("node {idx}: `leaf` must be a string")))?;
                spec.push(NodeSpec::Leaf(name.to_string()));
            } else if let Some(opname) = item.get("op") {
                let opname = opname
                    .as_str()
                    .ok_or_else(|| bad(format!("node {idx}: `op` must be a string")))?;
                let op = parse_op(opname, item)?;
                let inputs = item
                    .get("inputs")
                    .ok_or_else(|| bad(format!("node {idx}: missing `inputs`")))
                    .and_then(|v| index_array(v, "inputs"))?;
                spec.push(NodeSpec::Op { op, inputs });
            } else {
                return Err(bad(format!("node {idx}: need `leaf` or `op`")));
            }
        }
        let root = match v.get("root") {
            None => spec.len().saturating_sub(1),
            Some(r) => as_index(r, "root")?,
        };
        DagSpec { nodes: spec, root }
    } else if let Some(opname) = v.get("op") {
        // Shorthand: inputs are matrix *names*.
        let opname = opname
            .as_str()
            .ok_or_else(|| bad("`op` must be a string"))?;
        let op = parse_op(opname, &v)?;
        let inputs = v.get("inputs").ok_or_else(|| bad("missing `inputs`"))?;
        let names: Vec<String> = as_array(inputs, "inputs")?
            .iter()
            .map(|x| {
                x.as_str()
                    .map(String::from)
                    .ok_or_else(|| bad("`inputs` must be matrix names"))
            })
            .collect::<Result<_, _>>()?;
        let n = names.len();
        let mut nodes: Vec<NodeSpec> = names.into_iter().map(NodeSpec::Leaf).collect();
        nodes.push(NodeSpec::Op {
            op,
            inputs: (0..n).collect(),
        });
        DagSpec { nodes, root: n }
    } else {
        return Err(bad("need `op` + `inputs` or `dag`"));
    };

    dag.validate()?;
    Ok(EstimateRequest {
        client,
        dag,
        include_sketch,
    })
}

/// Parses a `PUT /v1/matrices/{name}` JSON body into a CSR matrix:
/// `{"nrows": m, "ncols": n, "row_ptr": [...], "col_idx": [...],
///   "values": [...]?}` — `values` defaults to all-ones (pattern-only
/// ingest; the sketch only sees the pattern anyway).
pub fn parse_csr_body(body: &[u8]) -> Result<CsrMatrix, ServiceError> {
    let v = parse_body(body)?;
    let nrows = v
        .get("nrows")
        .ok_or_else(|| bad("missing `nrows`"))
        .and_then(|x| as_index(x, "nrows"))?;
    let ncols = v
        .get("ncols")
        .ok_or_else(|| bad("missing `ncols`"))
        .and_then(|x| as_index(x, "ncols"))?;
    let row_ptr = v
        .get("row_ptr")
        .ok_or_else(|| bad("missing `row_ptr`"))
        .and_then(|x| index_array(x, "row_ptr"))?;
    let col_idx: Vec<u32> = v
        .get("col_idx")
        .ok_or_else(|| bad("missing `col_idx`"))
        .and_then(|x| index_array(x, "col_idx"))?
        .into_iter()
        .map(|c| u32::try_from(c).map_err(|_| bad("`col_idx` entry exceeds u32")))
        .collect::<Result<_, _>>()?;
    let values: Vec<f64> = match v.get("values") {
        None => vec![1.0; col_idx.len()],
        Some(arr) => as_array(arr, "values")?
            .iter()
            .map(|x| x.as_f64().ok_or_else(|| bad("`values` must be numbers")))
            .collect::<Result<_, _>>()?,
    };
    CsrMatrix::try_from_parts(nrows, ncols, row_ptr, col_idx, values)
        .map_err(|e| bad(format!("invalid CSR: {e}")))
}

/// Lowercase hex encoding for binary payloads embedded in JSON.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Inverse of [`to_hex`].
pub fn from_hex(text: &str) -> Result<Vec<u8>, ServiceError> {
    if !text.len().is_multiple_of(2) {
        return Err(bad("hex payload has odd length"));
    }
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).map_err(|_| bad("invalid hex payload")))
        .collect()
}

/// Renders one catalog entry's metadata object.
pub fn matrix_meta_json(name: &str, sketch: &mnc_core::MncSketch, file_bytes: u64) -> String {
    format!(
        "{{\"name\":\"{}\",\"nrows\":{},\"ncols\":{},\"nnz\":{},\"sparsity\":{},\"file_bytes\":{}}}",
        json_escape(name),
        sketch.nrows,
        sketch.ncols,
        sketch.meta.nnz,
        json_f64(sketch.sparsity()),
        file_bytes
    )
}

/// Renders the `POST /v1/estimate` success body.
pub fn estimate_json(out: &EstimateOutcome) -> String {
    let mut body = format!(
        "{{\"sparsity\":{},\"nnz\":{},\"shape\":[{},{}]",
        json_f64(out.sparsity),
        out.nnz,
        out.shape.0,
        out.shape.1
    );
    if let Some(bytes) = &out.sketch_bytes {
        body.push_str(&format!(",\"sketch_hex\":\"{}\"", to_hex(bytes)));
    }
    body.push('}');
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shorthand_desugars_to_dag() {
        let req =
            parse_estimate_request(br#"{"op":"matmul","inputs":["A","B"],"client":"c1"}"#).unwrap();
        assert_eq!(req.client, "c1");
        assert_eq!(req.dag.nodes.len(), 3);
        assert_eq!(req.dag.root, 2);
        assert!(!req.include_sketch);
        assert!(matches!(
            &req.dag.nodes[2],
            NodeSpec::Op { op: OpKind::MatMul, inputs } if inputs == &[0, 1]
        ));
    }

    #[test]
    fn explicit_dag_with_reshape() {
        let req = parse_estimate_request(
            br#"{"dag":[{"leaf":"X"},{"op":"transpose","inputs":[0]},
                 {"op":"reshape","inputs":[1],"rows":6,"cols":4}],
                 "include_sketch":true}"#,
        )
        .unwrap();
        assert_eq!(req.client, "default");
        assert!(req.include_sketch);
        assert_eq!(req.dag.root, 2);
        assert!(matches!(
            &req.dag.nodes[2],
            NodeSpec::Op {
                op: OpKind::Reshape { rows: 6, cols: 4 },
                ..
            }
        ));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(parse_estimate_request(b"not json").is_err());
        assert!(parse_estimate_request(b"{}").is_err());
        assert!(parse_estimate_request(br#"{"op":"launder","inputs":["A"]}"#).is_err());
        assert!(parse_estimate_request(br#"{"op":"matmul","inputs":["A"]}"#).is_err());
        assert!(
            parse_estimate_request(br#"{"dag":[{"op":"matmul","inputs":[0,1]}]}"#).is_err(),
            "forward/self references must be rejected"
        );
        assert!(parse_estimate_request(br#"{"op":"reshape","inputs":["A"]}"#).is_err());
    }

    #[test]
    fn csr_body_roundtrip_and_validation() {
        let m = parse_csr_body(
            br#"{"nrows":2,"ncols":3,"row_ptr":[0,2,3],"col_idx":[0,2,1],
                 "values":[1.5,-2.0,3.0]}"#,
        )
        .unwrap();
        assert_eq!((m.nrows(), m.ncols(), m.nnz()), (2, 3, 3));

        // Pattern-only: values default to ones.
        let p = parse_csr_body(br#"{"nrows":1,"ncols":2,"row_ptr":[0,1],"col_idx":[1]}"#).unwrap();
        assert_eq!(p.values(), &[1.0]);

        // Invariant violations surface as 400s, not panics.
        assert!(parse_csr_body(br#"{"nrows":1,"ncols":2,"row_ptr":[0,2],"col_idx":[1]}"#).is_err());
        assert!(parse_csr_body(br#"{"nrows":1,"ncols":2,"row_ptr":[0,1],"col_idx":[5]}"#).is_err());
    }

    #[test]
    fn hex_roundtrip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn estimate_json_is_full_precision() {
        let out = EstimateOutcome {
            sparsity: 0.123_456_789_012_345_68,
            nnz: 42,
            shape: (7, 9),
            sketch_bytes: None,
        };
        let body = estimate_json(&out);
        let v = mnc_obs::json::parse(&body).unwrap();
        let got = v.get("sparsity").and_then(|s| s.as_f64()).unwrap();
        assert_eq!(got.to_bits(), out.sparsity.to_bits());
    }
}
