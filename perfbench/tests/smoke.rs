//! Short runs of every workload, checked against `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

/// A JSON value, as much of it as the benchmark's files use.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(
                self.s[self.i], b'\\',
                "escapes are not used by the benchmark"
            );
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                let word = [&b"true"[..], b"false", b"null"]
                    .into_iter()
                    .find(|w| self.s[self.i..].starts_with(w))
                    .expect("literal");
                self.i += word.len();
                match word {
                    b"true" => Json::Bool(true),
                    b"false" => Json::Bool(false),
                    _ => Json::Null,
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let t = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(t.parse().unwrap_or_else(|_| panic!("bad number {t:?}")))
            }
        }
    }
}

fn parse(s: &str) -> Json {
    let mut p = Parser {
        s: s.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, s.len(), "trailing bytes after JSON value");
    v
}

impl Json {
    fn get(&self, k: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(k).unwrap_or_else(|| panic!("missing key {k}")),
            _ => panic!("not an object"),
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array"),
        }
    }
    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            _ => panic!("not an object"),
        }
    }
}

/// `(name, unit)` of each metric the benchmark declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let spec = parse(&text);
    spec.get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, seed: u64, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "2",
        ])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("spawn perfbench");
    assert!(
        out.status.success(),
        "perfbench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("some output");
    let result = parse(last);
    assert_eq!(
        result.obj().keys().map(String::as_str).collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"],
        "{workload}: result keys"
    );
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload}:\n{stdout}"
    );
    assert_eq!(
        result.get("failed").num(),
        0.0,
        "{workload}: failed operations\n{stdout}"
    );
    assert!(
        result.get("attempted").num() >= 1.0,
        "{workload}: nothing attempted"
    );

    let section = if trace == 1 {
        "per_layer"
    } else {
        "end_to_end"
    };
    let mut want = declared(section);
    want.sort();
    let got: Vec<(String, String)> = result
        .get("metrics")
        .obj()
        .iter()
        .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
        .collect();
    assert_eq!(
        got, want,
        "{workload} --trace {trace}: metric names and units"
    );
    for (k, v) in result.get("metrics").obj() {
        assert!(
            v.get("value").num().is_finite(),
            "{workload}: {k} is not finite"
        );
    }
    result
}

fn value(r: &Json, name: &str) -> f64 {
    r.get("metrics").get(name).get("value").num()
}

#[test]
fn kv_zipf_emits_every_metric_without_failures() {
    let e2e = run("kv-zipf", 7, 0);
    for e in ["nzstm", "bzstm", "scss", "norec"] {
        assert!(
            value(&e2e, &format!("{e}.txn_per_s")) > 0.0,
            "{e} committed nothing"
        );
    }
    let layers = run("kv-zipf", 7, 1);
    assert!(
        value(&layers, "nzstm.tds.reads_per_op") > 0.0,
        "kv-zipf exercises nztm-tds"
    );
}

#[test]
fn rmw_hot_emits_every_metric_without_failures() {
    run("rmw-hot", 7, 0);
    let layers = run("rmw-hot", 7, 1);
    // Every transaction acquires its four objects.
    assert!(value(&layers, "nzstm.engine.acquires_per_commit") >= 1.0);
    assert_eq!(
        value(&layers, "nzstm.tds.op_ns"),
        0.0,
        "rmw-hot bypasses nztm-tds"
    );
}

#[test]
fn sim_hybrid_simulated_metrics_repeat_for_a_seed() {
    let simulated = |r: &Json| -> Vec<(String, f64)> {
        r.get("metrics")
            .obj()
            .iter()
            .filter(|(k, _)| {
                (k.starts_with("hybrid.") && k.as_str() != "hybrid.host_txn_per_s")
                    || (k.starts_with("sim.") && k.as_str() != "sim.host_ns_per_yield")
            })
            .map(|(k, v)| (k.clone(), v.get("value").num()))
            .collect()
    };
    let a = run("sim-hybrid", 7, 0);
    let b = run("sim-hybrid", 7, 0);
    assert_eq!(simulated(&a), simulated(&b));
    assert!(value(&a, "hybrid.txn_per_mcycle") > 0.0);
    let c = run("sim-hybrid", 7, 1);
    let d = run("sim-hybrid", 7, 1);
    assert_eq!(simulated(&c), simulated(&d));
    assert!(
        simulated(&c).len() >= 10,
        "the simulated per-layer metrics are compared"
    );
}
