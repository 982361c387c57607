//! One script, one runner: `xic batch --session` (an in-process corpus)
//! and `xic connect --script` (a live server) run the same directive loop,
//! so the same script must produce the same delta stream and final reports
//! on both — including the label rule for a label opened twice.

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use xic_cli::{run, JsonValue};

const SCHOOL_DTD: &str = "<!ELEMENT school (teacher*)>\n\
    <!ELEMENT teacher EMPTY>\n\
    <!ATTLIST teacher name CDATA #REQUIRED>";

fn temp_file(name: &str, contents: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("xic-script-backends-{}-{name}", std::process::id()));
    fs::write(&path, contents).unwrap();
    path
}

fn parse_json(report: &str) -> JsonValue {
    JsonValue::parse(report.trim()).unwrap_or_else(|e| panic!("invalid JSON ({e}): {report}"))
}

/// The members every delta-stream command renders identically.
fn stream_of(json: &JsonValue) -> Vec<Option<&JsonValue>> {
    ["deltas", "total", "clean", "reports"]
        .iter()
        .map(|key| json.get(key))
        .collect()
}

#[test]
fn a_relabelled_script_streams_identically_in_process_and_over_the_wire() {
    let dtd = temp_file("spec.dtd", SCHOOL_DTD);
    let sigma = temp_file("spec.xic", "teacher.name -> teacher");
    let a = temp_file("a.xml", "<school><teacher name=\"Joe\"/></school>");
    let b = temp_file(
        "b.xml",
        "<school><teacher name=\"Ann\"/><teacher name=\"Bob\"/></school>",
    );
    let a_name = a.file_name().unwrap().to_str().unwrap();
    let b_name = b.file_name().unwrap().to_str().unwrap();
    // `d` is opened twice: every later directive must address the second
    // document (b, whose node 3 is its second teacher — a has no node 3),
    // and `close d` closes b, leaving a open.
    let script = temp_file(
        "script.txt",
        &format!(
            "open d {a_name}\n\
             open d {b_name}\n\
             commit\n\
             set d 3 name Ann\n\
             commit\n\
             close d\n\
             commit\n"
        ),
    );
    let (dtd, sigma, script) = (
        dtd.to_str().unwrap(),
        sigma.to_str().unwrap(),
        script.to_str().unwrap(),
    );

    let (local, code) = run([
        "batch",
        "--dtd",
        dtd,
        "--constraints",
        sigma,
        "--session",
        script,
        "--format",
        "json",
    ]);
    assert_eq!(code, 0, "{local}");
    let local = parse_json(&local);

    let addr_file = temp_file("addr", "");
    let serve_args: Vec<String> = [
        "serve",
        "--dtd",
        dtd,
        "--constraints",
        sigma,
        "--listen",
        "127.0.0.1:0",
        "--addr-file",
        addr_file.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let server = std::thread::spawn(move || run(serve_args));
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        let addr = fs::read_to_string(&addr_file).unwrap_or_default();
        if addr.contains(':') {
            break addr;
        }
        assert!(Instant::now() < deadline, "server never wrote its address");
        std::thread::sleep(Duration::from_millis(10));
    };
    let (remote, code) = run([
        "connect",
        "--dtd",
        dtd,
        "--constraints",
        sigma,
        "--addr",
        &addr,
        "--script",
        script,
        "--format",
        "json",
    ]);
    let (shutdown, _) = run([
        "connect",
        "--dtd",
        dtd,
        "--constraints",
        sigma,
        "--addr",
        &addr,
        "--shutdown",
    ]);
    assert!(shutdown.contains("shutting down"), "{shutdown}");
    let (_, serve_code) = server.join().expect("serve thread panicked");
    assert_eq!(serve_code, 0);
    assert_eq!(code, 0, "{remote}");
    let remote = parse_json(&remote);

    assert_eq!(stream_of(&local), stream_of(&remote));
    // And the stream is the one the label rule promises: b flipped at
    // commit 2, b (doc-1) closed at commit 3, a (doc-0) left open and clean.
    let deltas = local.get("deltas").and_then(JsonValue::as_array).unwrap();
    assert_eq!(deltas.len(), 3);
    let changes = deltas[1]
        .get("changes")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert_eq!(changes.len(), 1);
    assert_eq!(
        changes[0].get("doc").and_then(JsonValue::as_str),
        Some("doc-1")
    );
    let closed = deltas[2]
        .get("closed")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert_eq!(
        closed[0].get("doc").and_then(JsonValue::as_str),
        Some("doc-1")
    );
    assert_eq!(local.get("total"), Some(&JsonValue::Number(1.0)));
    assert_eq!(local.get("clean"), Some(&JsonValue::Number(1.0)));
    for path in [a, b, addr_file] {
        fs::remove_file(path).ok();
    }
}
