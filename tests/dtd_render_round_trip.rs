//! `Dtd::render` writes DTD text that `parse_dtd` reads back to the same
//! DTD: the same element types, and content models that accept exactly
//! the same child words.  Checked for every word of up to four symbols
//! over the element types and `S`, on `random_dtd` DTDs and on DTDs with
//! ε nested inside their content models (hand-built ones and the
//! Theorem 4.7 reduction's, whose witnesses used to gain `<EMPTY/>`
//! leaves after a render/parse round trip), including one with an element
//! type named `EMPTY`.

use xml_integrity_constraints::core::lip_to_spec;
use xml_integrity_constraints::dtd::{parse_dtd, ChildSymbol, ContentModel, Dtd, Glushkov};
use xml_integrity_constraints::gen::{random_dtd, recursive_list_dtd, DtdGenConfig};

/// Every word of length `0..=max` over `alphabet`.
fn words(alphabet: &[ChildSymbol], max: usize) -> Vec<Vec<ChildSymbol>> {
    let mut all = vec![Vec::new()];
    let mut frontier = vec![Vec::new()];
    for _ in 0..max {
        frontier = frontier
            .iter()
            .flat_map(|w: &Vec<ChildSymbol>| {
                alphabet.iter().map(move |&s| {
                    let mut longer = w.clone();
                    longer.push(s);
                    longer
                })
            })
            .collect();
        all.extend(frontier.iter().cloned());
    }
    all
}

fn assert_round_trips(what: &str, dtd: &Dtd) {
    let text = dtd.render();
    let back = parse_dtd(&text, Some(dtd.type_name(dtd.root())))
        .unwrap_or_else(|e| panic!("{what}: rendered DTD does not parse ({e}):\n{text}"));
    assert_eq!(back.num_types(), dtd.num_types(), "{what}:\n{text}");
    // The parsed DTD numbers types by first mention: translate by name.
    let to_back = |s: ChildSymbol| match s {
        ChildSymbol::Element(ty) => ChildSymbol::Element(
            back.type_by_name(dtd.type_name(ty))
                .unwrap_or_else(|| panic!("{what}: type {} lost", dtd.type_name(ty))),
        ),
        ChildSymbol::Text => ChildSymbol::Text,
    };
    let mut alphabet: Vec<ChildSymbol> = dtd.types().map(ChildSymbol::Element).collect();
    alphabet.push(ChildSymbol::Text);
    let words = words(&alphabet, 4);
    for ty in dtd.types() {
        let ChildSymbol::Element(back_ty) = to_back(ChildSymbol::Element(ty)) else {
            unreachable!()
        };
        let original = Glushkov::new(dtd.content(ty));
        let parsed = Glushkov::new(back.content(back_ty));
        for word in &words {
            let translated: Vec<ChildSymbol> = word.iter().map(|&s| to_back(s)).collect();
            assert_eq!(
                original.matches(word),
                parsed.matches(&translated),
                "{what}: `{}` disagrees on {word:?}:\n{text}",
                dtd.type_name(ty)
            );
        }
    }
}

#[test]
fn random_dtds_round_trip_through_text() {
    for seed in 0..12 {
        let dtd = random_dtd(&DtdGenConfig {
            seed,
            num_types: 5,
            ..Default::default()
        });
        assert_round_trips(&format!("random_dtd seed {seed}"), &dtd);
    }
}

#[test]
fn nested_epsilon_round_trips_through_text() {
    let mut b = Dtd::builder();
    let root = b.elem("r");
    let a = b.elem("a");
    let c = b.elem("c");
    let eps = || ContentModel::Epsilon;
    let el = ContentModel::Element;
    b.content(
        root,
        ContentModel::seq_all([
            ContentModel::alt(el(a), eps()),
            ContentModel::star(ContentModel::alt(eps(), el(c))),
            ContentModel::seq(eps(), ContentModel::plus(ContentModel::alt(el(a), eps()))),
            ContentModel::opt(ContentModel::star(el(c))),
        ]),
    );
    b.content(a, ContentModel::alt(ContentModel::seq(el(c), el(c)), eps()));
    b.content(c, ContentModel::seq(eps(), ContentModel::star(eps())));
    let hand_built = b.build("r").expect("well-formed");
    assert_round_trips("hand-built", &hand_built);
    assert_round_trips("recursive list", &recursive_list_dtd());
    let lip = lip_to_spec(&[vec![true, true]]);
    assert_round_trips("LIP reduction", &lip.dtd);

    // A type may be named `EMPTY`: `r (EMPTY)` names it, `r EMPTY` is the
    // keyword, and the two must render apart.
    let mut b = Dtd::builder();
    let root = b.elem("r");
    let empty = b.elem("EMPTY");
    let s = b.elem("s");
    b.content(root, el(empty));
    b.content(empty, eps());
    b.content(s, ContentModel::alt(el(empty), eps()));
    let named_empty = b.build("r").expect("well-formed");
    assert_round_trips("type named EMPTY", &named_empty);
}
