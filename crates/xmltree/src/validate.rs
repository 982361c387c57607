//! Validation of XML trees against DTDs (the `T ⊨ D` relation of
//! Definition 2.2).

use std::collections::HashMap;

use xic_dtd::{ChildSymbol, Dtd, ElemId, Glushkov};

use crate::tree::{NodeId, NodeLabel, XmlTree};

/// A single validation violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The root element is not labelled with the DTD's root type.
    WrongRootType {
        /// Expected root type name.
        expected: String,
        /// Actual root type name.
        found: String,
    },
    /// The ordered children of an element do not match its content model.
    ContentModelMismatch {
        /// Path of the offending element.
        path: String,
        /// Element type name.
        element_type: String,
        /// The content model, rendered.
        expected: String,
        /// The children label word, rendered.
        found: String,
    },
    /// A required attribute is missing.
    MissingAttribute {
        /// Path of the offending element.
        path: String,
        /// Attribute name.
        attribute: String,
    },
    /// An attribute not in `R(τ)` is present.
    UnexpectedAttribute {
        /// Path of the offending element.
        path: String,
        /// Attribute name.
        attribute: String,
    },
    /// An attribute or text node is missing its string value, or an element
    /// node carries one.
    ValueShape {
        /// Path of the offending node.
        path: String,
        /// Description of the problem.
        message: String,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::WrongRootType { expected, found } => {
                write!(
                    f,
                    "root element is `{found}` but the DTD root is `{expected}`"
                )
            }
            ValidationError::ContentModelMismatch {
                path,
                element_type,
                expected,
                found,
            } => {
                write!(
                    f,
                    "{path}: children of `{element_type}` are [{found}] which does not match {expected}"
                )
            }
            ValidationError::MissingAttribute { path, attribute } => {
                write!(f, "{path}: missing required attribute `{attribute}`")
            }
            ValidationError::UnexpectedAttribute { path, attribute } => {
                write!(
                    f,
                    "{path}: attribute `{attribute}` is not defined for this element type"
                )
            }
            ValidationError::ValueShape { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// A compiled validator: one Glushkov automaton per element type.
///
/// The automata can be owned (built by [`Validator::new`]) or borrowed from a
/// caller that compiled them once and validates many documents (see
/// [`Validator::from_automata`]).
#[derive(Debug)]
pub struct Validator<'d> {
    dtd: &'d Dtd,
    automata: Automata<'d>,
}

#[derive(Debug)]
enum Automata<'d> {
    Owned(HashMap<ElemId, Glushkov>),
    Borrowed(&'d HashMap<ElemId, Glushkov>),
}

impl Automata<'_> {
    fn get(&self, ty: ElemId) -> &Glushkov {
        match self {
            Automata::Owned(map) => &map[&ty],
            Automata::Borrowed(map) => &map[&ty],
        }
    }
}

/// Builds the Glushkov automata of every content model of a DTD, keyed by
/// element type — the per-spec compilation step that [`Validator::new`] runs
/// implicitly and that batch engines want to run exactly once.
pub fn compile_automata(dtd: &Dtd) -> HashMap<ElemId, Glushkov> {
    dtd.types()
        .map(|ty| (ty, Glushkov::new(dtd.content(ty))))
        .collect()
}

impl<'d> Validator<'d> {
    /// Compiles the content models of a DTD.
    pub fn new(dtd: &'d Dtd) -> Validator<'d> {
        Validator {
            dtd,
            automata: Automata::Owned(compile_automata(dtd)),
        }
    }

    /// Wraps automata compiled once elsewhere (see [`compile_automata`]);
    /// `automata` must cover every element type of `dtd`.
    pub fn from_automata(dtd: &'d Dtd, automata: &'d HashMap<ElemId, Glushkov>) -> Validator<'d> {
        Validator {
            dtd,
            automata: Automata::Borrowed(automata),
        }
    }

    /// Validates a whole tree, collecting every violation.
    pub fn validate(&self, tree: &XmlTree) -> Vec<ValidationError> {
        let mut errors = Vec::new();
        // Root label.
        match tree.label(tree.root()) {
            NodeLabel::Element(e) if e == self.dtd.root() => {}
            NodeLabel::Element(e) => errors.push(ValidationError::WrongRootType {
                expected: self.dtd.type_name(self.dtd.root()).to_string(),
                found: self.dtd.type_name(e).to_string(),
            }),
            _ => errors.push(ValidationError::WrongRootType {
                expected: self.dtd.type_name(self.dtd.root()).to_string(),
                found: "#text".to_string(),
            }),
        }
        for node in tree.elements() {
            self.validate_element(tree, node, &mut errors);
        }
        errors
    }

    /// Checks the local conditions of the given elements only — each one's
    /// children word, attribute set and value shapes, exactly as
    /// [`Validator::validate`] checks every element — collecting their
    /// violations in the order given.  Validity is a conjunction of these
    /// per-element conditions plus the root label, so after an edit that
    /// cannot relabel the root, re-checking the elements it touched decides
    /// whether a tree that was valid still is.  Non-element ids are
    /// skipped.
    pub fn validate_elements(&self, tree: &XmlTree, nodes: &[NodeId]) -> Vec<ValidationError> {
        let mut errors = Vec::new();
        for &node in nodes {
            self.validate_element(tree, node, &mut errors);
        }
        errors
    }

    /// Returns `true` iff the tree is valid with respect to the DTD.
    pub fn is_valid(&self, tree: &XmlTree) -> bool {
        self.validate(tree).is_empty()
    }

    fn validate_element(&self, tree: &XmlTree, node: NodeId, errors: &mut Vec<ValidationError>) {
        let Some(ty) = tree.element_type(node) else {
            return;
        };
        let path = || tree.path_of(self.dtd, node);

        // Elements carry no value.
        if tree.value(node).is_some() {
            errors.push(ValidationError::ValueShape {
                path: path(),
                message: "element node has a string value".to_string(),
            });
        }

        // Children word must be in L(P(τ)).
        let word: Vec<ChildSymbol> = tree
            .children(node)
            .iter()
            .map(|&c| match tree.label(c) {
                NodeLabel::Element(e) => ChildSymbol::Element(e),
                _ => ChildSymbol::Text,
            })
            .collect();
        let automaton = self.automata.get(ty);
        if !automaton.matches(&word) {
            let found = word
                .iter()
                .map(|s| match s {
                    ChildSymbol::Element(e) => self.dtd.type_name(*e).to_string(),
                    ChildSymbol::Text => "S".to_string(),
                })
                .collect::<Vec<_>>()
                .join(", ");
            errors.push(ValidationError::ContentModelMismatch {
                path: path(),
                element_type: self.dtd.type_name(ty).to_string(),
                expected: self
                    .dtd
                    .content(ty)
                    .render(&|e| self.dtd.type_name(e).to_string()),
                found,
            });
        }

        // Attribute set must be exactly R(τ), every attribute with a value.
        for &required in self.dtd.attrs_of(ty) {
            if tree.attr_value(node, required).is_none() {
                errors.push(ValidationError::MissingAttribute {
                    path: path(),
                    attribute: self.dtd.attr_name(required).to_string(),
                });
            }
        }
        for &(attr, attr_node) in tree.attributes(node) {
            if !self.dtd.has_attr(ty, attr) {
                errors.push(ValidationError::UnexpectedAttribute {
                    path: path(),
                    attribute: self.dtd.attr_name(attr).to_string(),
                });
            }
            if tree.value(attr_node).is_none() {
                errors.push(ValidationError::ValueShape {
                    path: path(),
                    message: format!(
                        "attribute `{}` has no string value",
                        self.dtd.attr_name(attr)
                    ),
                });
            }
        }

        // Text children must carry values and no children of their own.
        for &child in tree.children(node) {
            if matches!(tree.label(child), NodeLabel::Text) {
                if tree.value(child).is_none() {
                    errors.push(ValidationError::ValueShape {
                        path: tree.path_of(self.dtd, child),
                        message: "text node has no string value".to_string(),
                    });
                }
                if !tree.children(child).is_empty() {
                    errors.push(ValidationError::ValueShape {
                        path: tree.path_of(self.dtd, child),
                        message: "text node has children".to_string(),
                    });
                }
            }
        }
    }
}

/// One-shot validation helper.
pub fn validate(tree: &XmlTree, dtd: &Dtd) -> Vec<ValidationError> {
    Validator::new(dtd).validate(tree)
}

/// One-shot validity test (`T ⊨ D`).
pub fn is_valid(tree: &XmlTree, dtd: &Dtd) -> bool {
    validate(tree, dtd).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_dtd::example_d1;

    fn d1_tree(dtd: &Dtd) -> XmlTree {
        let teachers = dtd.type_by_name("teachers").unwrap();
        let teacher = dtd.type_by_name("teacher").unwrap();
        let teach = dtd.type_by_name("teach").unwrap();
        let research = dtd.type_by_name("research").unwrap();
        let subject = dtd.type_by_name("subject").unwrap();
        let name = dtd.attr_by_name("name").unwrap();
        let taught_by = dtd.attr_by_name("taught_by").unwrap();
        let mut t = XmlTree::new(teachers);
        let te = t.add_element(t.root(), teacher);
        t.set_attr(te, name, "Joe");
        let th = t.add_element(te, teach);
        for s_name in ["XML", "DB"] {
            let s = t.add_element(th, subject);
            t.set_attr(s, taught_by, "Joe");
            t.add_text(s, s_name);
        }
        let r = t.add_element(te, research);
        t.add_text(r, "Web DB");
        t
    }

    #[test]
    fn figure1_style_tree_is_valid() {
        let dtd = example_d1();
        let t = d1_tree(&dtd);
        let errors = validate(&t, &dtd);
        assert!(errors.is_empty(), "{errors:?}");
        assert!(is_valid(&t, &dtd));
    }

    #[test]
    fn missing_attribute_is_reported() {
        let dtd = example_d1();
        let mut t = d1_tree(&dtd);
        // Add an extra subject without taught_by under teach.
        let teach = dtd.type_by_name("teach").unwrap();
        let subject = dtd.type_by_name("subject").unwrap();
        let teach_node = t.ext(teach).next().unwrap();
        t.add_element(teach_node, subject);
        let errors = validate(&t, &dtd);
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::MissingAttribute { attribute, .. } if attribute == "taught_by")));
        // The teach element now has three subject children: also a content
        // model mismatch.
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::ContentModelMismatch { .. })));
    }

    #[test]
    fn wrong_root_is_reported() {
        let dtd = example_d1();
        let teacher = dtd.type_by_name("teacher").unwrap();
        let t = XmlTree::new(teacher);
        let errors = validate(&t, &dtd);
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::WrongRootType { .. })));
    }

    #[test]
    fn unexpected_attribute_is_reported() {
        let dtd = example_d1();
        let mut t = d1_tree(&dtd);
        let teach = dtd.type_by_name("teach").unwrap();
        let name = dtd.attr_by_name("name").unwrap();
        let teach_node = t.ext(teach).next().unwrap();
        t.set_attr(teach_node, name, "oops");
        let errors = validate(&t, &dtd);
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::UnexpectedAttribute { attribute, .. } if attribute == "name")));
    }

    #[test]
    fn empty_teachers_violates_plus() {
        let dtd = example_d1();
        let teachers = dtd.type_by_name("teachers").unwrap();
        let t = XmlTree::new(teachers);
        // teachers requires at least one teacher child.
        let errors = validate(&t, &dtd);
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::ContentModelMismatch { .. })));
    }

    #[test]
    fn error_messages_are_informative() {
        let dtd = example_d1();
        let teachers = dtd.type_by_name("teachers").unwrap();
        let t = XmlTree::new(teachers);
        let errors = validate(&t, &dtd);
        let msg = errors[0].to_string();
        assert!(msg.contains("teachers"), "{msg}");
    }

    #[test]
    fn validating_every_element_is_validating_the_tree_below_its_root() {
        let dtd = example_d1();
        let mut t = d1_tree(&dtd);
        let v = Validator::new(&dtd);
        let all: Vec<NodeId> = t.elements().collect();
        assert!(v.validate_elements(&t, &all).is_empty());

        // Break one element: only it reports, and the whole-tree errors
        // are exactly the per-element ones.
        let teach = dtd.type_by_name("teach").unwrap();
        let subject = dtd.type_by_name("subject").unwrap();
        let teach_node = t.ext(teach).next().unwrap();
        let extra = t.add_element(teach_node, subject);
        let all: Vec<NodeId> = t.elements().collect();
        assert_eq!(v.validate_elements(&t, &all), v.validate(&t));
        assert_eq!(v.validate_elements(&t, &[teach_node]).len(), 1);
        // No `taught_by` and no text child.
        assert_eq!(v.validate_elements(&t, &[extra]).len(), 2);
        assert!(v.validate_elements(&t, &[t.root()]).is_empty());
    }

    #[test]
    fn validator_is_reusable() {
        let dtd = example_d1();
        let v = Validator::new(&dtd);
        let t1 = d1_tree(&dtd);
        let t2 = d1_tree(&dtd);
        assert!(v.is_valid(&t1));
        assert!(v.is_valid(&t2));
    }
}
