//! Regular-expression content models.
//!
//! Definition 2.1 of the paper gives element type definitions as regular
//! expressions `α ::= S | τ' | ε | α|α | α,α | α*` over element types and the
//! string type `S`.  [`ContentModel`] is that grammar, extended with the two
//! standard DTD abbreviations `α?` and `α+` which normalise into the core.

use std::fmt;

use crate::dtd::ElemId;

/// A content-model regular expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ContentModel {
    /// The empty word ε (an element with this model has no subelements).
    Epsilon,
    /// The string type `S` (`#PCDATA` in DTD syntax): a single text node.
    Text,
    /// A single subelement of the given element type.
    Element(ElemId),
    /// Concatenation `α, β`.
    Seq(Box<ContentModel>, Box<ContentModel>),
    /// Union `α | β`.
    Alt(Box<ContentModel>, Box<ContentModel>),
    /// Kleene closure `α*`.
    Star(Box<ContentModel>),
    /// One-or-more `α+` (sugar for `α, α*`).
    Plus(Box<ContentModel>),
    /// Optional `α?` (sugar for `α | ε`).
    Opt(Box<ContentModel>),
}

impl ContentModel {
    /// Concatenation of two models.
    pub fn seq(a: ContentModel, b: ContentModel) -> ContentModel {
        ContentModel::Seq(Box::new(a), Box::new(b))
    }

    /// Union of two models.
    pub fn alt(a: ContentModel, b: ContentModel) -> ContentModel {
        ContentModel::Alt(Box::new(a), Box::new(b))
    }

    /// Kleene star.
    pub fn star(a: ContentModel) -> ContentModel {
        ContentModel::Star(Box::new(a))
    }

    /// One or more repetitions.
    pub fn plus(a: ContentModel) -> ContentModel {
        ContentModel::Plus(Box::new(a))
    }

    /// Zero or one occurrence.
    pub fn opt(a: ContentModel) -> ContentModel {
        ContentModel::Opt(Box::new(a))
    }

    /// Concatenation of an arbitrary number of models (ε for the empty list).
    pub fn seq_all<I: IntoIterator<Item = ContentModel>>(items: I) -> ContentModel {
        let mut iter = items.into_iter();
        match iter.next() {
            None => ContentModel::Epsilon,
            Some(first) => iter.fold(first, ContentModel::seq),
        }
    }

    /// Union of an arbitrary number of models (ε for the empty list).
    pub fn alt_all<I: IntoIterator<Item = ContentModel>>(items: I) -> ContentModel {
        let mut iter = items.into_iter();
        match iter.next() {
            None => ContentModel::Epsilon,
            Some(first) => iter.fold(first, ContentModel::alt),
        }
    }

    /// Rewrites the model into the paper's core grammar: `+` becomes `α, α*`
    /// and `?` becomes `α | ε`.
    pub fn desugar(&self) -> ContentModel {
        match self {
            ContentModel::Epsilon => ContentModel::Epsilon,
            ContentModel::Text => ContentModel::Text,
            ContentModel::Element(e) => ContentModel::Element(*e),
            ContentModel::Seq(a, b) => ContentModel::seq(a.desugar(), b.desugar()),
            ContentModel::Alt(a, b) => ContentModel::alt(a.desugar(), b.desugar()),
            ContentModel::Star(a) => ContentModel::star(a.desugar()),
            ContentModel::Plus(a) => {
                let inner = a.desugar();
                ContentModel::seq(inner.clone(), ContentModel::star(inner))
            }
            ContentModel::Opt(a) => ContentModel::alt(a.desugar(), ContentModel::Epsilon),
        }
    }

    /// Returns `true` iff the empty word is in the language of the model.
    pub fn nullable(&self) -> bool {
        match self {
            ContentModel::Epsilon | ContentModel::Star(_) | ContentModel::Opt(_) => true,
            ContentModel::Text | ContentModel::Element(_) => false,
            ContentModel::Seq(a, b) => a.nullable() && b.nullable(),
            ContentModel::Alt(a, b) => a.nullable() || b.nullable(),
            ContentModel::Plus(a) => a.nullable(),
        }
    }

    /// Collects every element type mentioned in the model into `out`.
    pub fn collect_element_types(&self, out: &mut Vec<ElemId>) {
        match self {
            ContentModel::Epsilon | ContentModel::Text => {}
            ContentModel::Element(e) => out.push(*e),
            ContentModel::Seq(a, b) | ContentModel::Alt(a, b) => {
                a.collect_element_types(out);
                b.collect_element_types(out);
            }
            ContentModel::Star(a) | ContentModel::Plus(a) | ContentModel::Opt(a) => {
                a.collect_element_types(out)
            }
        }
    }

    /// Returns `true` iff the model mentions the string type `S`.
    pub fn mentions_text(&self) -> bool {
        match self {
            ContentModel::Text => true,
            ContentModel::Epsilon | ContentModel::Element(_) => false,
            ContentModel::Seq(a, b) | ContentModel::Alt(a, b) => {
                a.mentions_text() || b.mentions_text()
            }
            ContentModel::Star(a) | ContentModel::Plus(a) | ContentModel::Opt(a) => {
                a.mentions_text()
            }
        }
    }

    /// Number of AST nodes (used for size accounting in benches).
    pub fn size(&self) -> usize {
        match self {
            ContentModel::Epsilon | ContentModel::Text | ContentModel::Element(_) => 1,
            ContentModel::Seq(a, b) | ContentModel::Alt(a, b) => 1 + a.size() + b.size(),
            ContentModel::Star(a) | ContentModel::Plus(a) | ContentModel::Opt(a) => 1 + a.size(),
        }
    }

    /// The same language with every nested ε written away: ε drops out
    /// of a sequence, an alternative with ε becomes optional, and a
    /// repetition of ε is ε.  `None` when the whole model is ε.
    pub(crate) fn without_epsilon(&self) -> Option<ContentModel> {
        match self {
            ContentModel::Epsilon => None,
            ContentModel::Text | ContentModel::Element(_) => Some(self.clone()),
            ContentModel::Seq(a, b) => match (a.without_epsilon(), b.without_epsilon()) {
                (Some(a), Some(b)) => Some(ContentModel::seq(a, b)),
                (one, None) | (None, one) => one,
            },
            ContentModel::Alt(a, b) => match (a.without_epsilon(), b.without_epsilon()) {
                (Some(a), Some(b)) => Some(ContentModel::alt(a, b)),
                (Some(one), None) | (None, Some(one)) => Some(ContentModel::opt(one)),
                (None, None) => None,
            },
            ContentModel::Star(a) => a.without_epsilon().map(ContentModel::star),
            ContentModel::Plus(a) => a.without_epsilon().map(ContentModel::plus),
            ContentModel::Opt(a) => a.without_epsilon().map(ContentModel::opt),
        }
    }

    /// Renders the model with names supplied by `name_of` (DTD-ish syntax).
    ///
    /// DTD syntax has no ε inside a group, so a model that is ε as a whole
    /// renders as `EMPTY` and a nested ε is written away in the same
    /// language (`(a | ε)` renders as `a?`).  A postfix operator on a
    /// postfix form is parenthesised (`(a*)*`), so element content renders
    /// as text that `parse_dtd` reads back to the same language.
    pub fn render(&self, name_of: &dyn Fn(ElemId) -> String) -> String {
        fn postfix(
            a: &ContentModel,
            op: char,
            name_of: &dyn Fn(ElemId) -> String,
            out: &mut String,
        ) {
            let nested = matches!(
                a,
                ContentModel::Star(_) | ContentModel::Plus(_) | ContentModel::Opt(_)
            );
            if nested {
                out.push('(');
            }
            go(a, name_of, out);
            if nested {
                out.push(')');
            }
            out.push(op);
        }
        fn go(cm: &ContentModel, name_of: &dyn Fn(ElemId) -> String, out: &mut String) {
            match cm {
                ContentModel::Epsilon => unreachable!("ε is written away before rendering"),
                ContentModel::Text => out.push_str("#PCDATA"),
                ContentModel::Element(e) => out.push_str(&name_of(*e)),
                ContentModel::Seq(a, b) => {
                    out.push('(');
                    go(a, name_of, out);
                    out.push_str(", ");
                    go(b, name_of, out);
                    out.push(')');
                }
                ContentModel::Alt(a, b) => {
                    out.push('(');
                    go(a, name_of, out);
                    out.push_str(" | ");
                    go(b, name_of, out);
                    out.push(')');
                }
                ContentModel::Star(a) => postfix(a, '*', name_of, out),
                ContentModel::Plus(a) => postfix(a, '+', name_of, out),
                ContentModel::Opt(a) => postfix(a, '?', name_of, out),
            }
        }
        let mut s = String::new();
        match self.without_epsilon() {
            Some(model) => go(&model, name_of, &mut s),
            None => s.push_str("EMPTY"),
        }
        s
    }
}

impl fmt::Display for ContentModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(&|e: ElemId| format!("e{}", e.0)))
    }
}

/// A symbol of the "child alphabet": either an element type or a text node.
/// Words over this alphabet are what content models match (the label
/// sequences `lab(v1) … lab(vn)` of Definition 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChildSymbol {
    /// A subelement of the given type.
    Element(ElemId),
    /// A text node (label `S`).
    Text,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> ContentModel {
        ContentModel::Element(ElemId(i))
    }

    #[test]
    fn nullable_cases() {
        assert!(ContentModel::Epsilon.nullable());
        assert!(!ContentModel::Text.nullable());
        assert!(!e(0).nullable());
        assert!(ContentModel::star(e(0)).nullable());
        assert!(ContentModel::opt(e(0)).nullable());
        assert!(!ContentModel::plus(e(0)).nullable());
        assert!(ContentModel::seq(ContentModel::Epsilon, ContentModel::star(e(1))).nullable());
        assert!(!ContentModel::seq(e(0), ContentModel::star(e(1))).nullable());
        assert!(ContentModel::alt(e(0), ContentModel::Epsilon).nullable());
    }

    #[test]
    fn desugar_plus_and_opt() {
        let d = ContentModel::plus(e(0)).desugar();
        assert_eq!(d, ContentModel::seq(e(0), ContentModel::star(e(0))));
        let d = ContentModel::opt(e(1)).desugar();
        assert_eq!(d, ContentModel::alt(e(1), ContentModel::Epsilon));
        // Desugaring is recursive.
        let d = ContentModel::seq(ContentModel::plus(e(0)), ContentModel::opt(e(1))).desugar();
        assert!(matches!(d, ContentModel::Seq(_, _)));
        assert!(!format!("{d:?}").contains("Plus"));
        assert!(!format!("{d:?}").contains("Opt"));
    }

    #[test]
    fn collects_element_types() {
        let cm = ContentModel::seq(e(0), ContentModel::alt(e(1), ContentModel::star(e(0))));
        let mut out = Vec::new();
        cm.collect_element_types(&mut out);
        assert_eq!(out, vec![ElemId(0), ElemId(1), ElemId(0)]);
        assert!(!cm.mentions_text());
        assert!(ContentModel::seq(e(0), ContentModel::Text).mentions_text());
    }

    #[test]
    fn seq_all_and_alt_all() {
        assert_eq!(ContentModel::seq_all([]), ContentModel::Epsilon);
        assert_eq!(ContentModel::seq_all([e(0)]), e(0));
        let three = ContentModel::seq_all([e(0), e(1), e(2)]);
        assert_eq!(three.size(), 5);
        let alts = ContentModel::alt_all([e(0), e(1)]);
        assert_eq!(alts, ContentModel::alt(e(0), e(1)));
    }

    #[test]
    fn render_writes_nested_epsilon_away() {
        let name = |id: ElemId| ["a", "b"][id.0 as usize].to_string();
        let eps = || ContentModel::Epsilon;
        assert_eq!(eps().render(&name), "EMPTY");
        assert_eq!(ContentModel::alt(e(0), eps()).render(&name), "a?");
        assert_eq!(ContentModel::alt(eps(), e(1)).render(&name), "b?");
        assert_eq!(ContentModel::seq(e(0), eps()).render(&name), "a");
        assert_eq!(
            ContentModel::star(ContentModel::alt(e(0), eps())).render(&name),
            "(a?)*"
        );
        assert_eq!(
            ContentModel::seq(ContentModel::star(eps()), ContentModel::alt(eps(), eps()))
                .render(&name),
            "EMPTY"
        );
        assert_eq!(
            ContentModel::star(ContentModel::star(e(0))).render(&name),
            "(a*)*"
        );
    }

    #[test]
    fn render_is_readable() {
        let cm = ContentModel::seq(e(0), ContentModel::star(e(1)));
        let s = cm.render(&|id| ["teach", "research"][id.0 as usize].to_string());
        assert_eq!(s, "(teach, research*)");
    }
}
