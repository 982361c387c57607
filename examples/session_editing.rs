//! Session editing: edit a live document and re-validate incrementally.
//!
//! The repair loop the paper's checking problem `T ⊨ Σ` runs inside in
//! practice: load a document once, then alternate edits and re-checks until
//! the data is clean.  A [`CorpusSession`] keeps the satisfaction indexes
//! exact under every edit, so each re-check ([`CorpusSession::verdict`])
//! costs O(edit) instead of a rebuild — and it reports how many constraints
//! it actually had to re-examine.
//!
//! Run with: `cargo run --example session_editing`

use xml_integrity_constraints::engine::{CompiledSpec, CorpusSession};
use xml_integrity_constraints::xml::EditOp;

const DTD: &str = r#"
    <!ELEMENT school (course*, enroll*)>
    <!ELEMENT course EMPTY>
    <!ELEMENT enroll EMPTY>
    <!ATTLIST course code CDATA #REQUIRED>
    <!ATTLIST enroll course CDATA #REQUIRED>
"#;

const SIGMA: &str = "
    course.code -> course
    enroll.course ref course.code
";

const DOC: &str = r#"<school>
    <course code="db101"/>
    <course code="db101"/>
    <enroll course="ml305"/>
</school>"#;

fn main() {
    let spec = CompiledSpec::from_sources(DTD, Some("school"), SIGMA).expect("spec compiles");
    let course = spec.dtd().type_by_name("course").unwrap();
    let code = spec.dtd().attr_by_name("code").unwrap();

    let mut session = CorpusSession::new(&spec);
    let doc = session
        .open_source("school.xml", DOC)
        .expect("document parses");

    // Two problems: a duplicate course code, and an enrolment referencing a
    // course that does not exist.
    let verdict = session.verdict(doc).unwrap();
    println!("== initial document ==");
    for v in verdict.violations() {
        println!("  violation: {v}");
    }

    // Repair 1: rename the duplicate course.  Only the constraints whose
    // slots mention course.code are re-checked.
    let dup = session.tree(doc).unwrap().ext(course).nth(1).unwrap();
    session
        .apply(
            doc,
            &[EditOp::SetAttr {
                element: dup,
                attr: code,
                value: "ml305".into(),
            }],
        )
        .unwrap();
    let verdict = session.verdict(doc).unwrap();
    println!("\n== after renaming the duplicate course to ml305 ==");
    println!(
        "  re-checked {} of {} constraints",
        verdict.rechecked(),
        spec.sigma().len()
    );
    for v in verdict.violations() {
        println!("  violation: {v}");
    }
    assert!(verdict.is_clean(), "one edit fixed both problems");

    // Break it again: removing the ml305 course re-dangles the enrolment.
    let ml305 = session.tree(doc).unwrap().ext(course).nth(1).unwrap();
    session
        .apply(doc, &[EditOp::RemoveSubtree { element: ml305 }])
        .unwrap();
    let verdict = session.verdict(doc).unwrap();
    println!("\n== after removing the ml305 course ==");
    for v in verdict.violations() {
        println!("  violation: {v}");
    }
    assert!(!verdict.is_clean());

    // The journal holds the full edit history; the edited tree survives the
    // session.
    println!(
        "\n{} edits journaled; closing returns the edited tree",
        session.journal(doc).unwrap().len()
    );
    let tree = session.close(doc).unwrap();
    println!("final document: {} live nodes", tree.num_nodes());
}
