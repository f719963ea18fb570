//! The graph schema: what the prompt tells the model about the plot.

use vgraph::{Graph, Item};

/// Kind of a member, for grounding decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberKind {
    /// A text field.
    Text,
    /// A link edge.
    Link,
    /// A container.
    Container,
}

/// One member of a box type.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaMember {
    /// Member name as displayed.
    pub name: String,
    /// Member kind.
    pub kind: MemberKind,
}

/// One box type present in the plot.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaType {
    /// C type tag (may be empty for virtual boxes).
    pub ctype: String,
    /// ViewCL label.
    pub label: String,
    /// Union of members across views.
    pub members: Vec<SchemaMember>,
    /// How many instances the plot holds.
    pub count: usize,
}

/// The schema extracted from a plotted graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schema {
    /// All types, most frequent first.
    pub types: Vec<SchemaType>,
}

impl Schema {
    /// Derive the schema of `graph`.
    pub fn of(graph: &Graph) -> Schema {
        let mut map: std::collections::BTreeMap<(String, String), SchemaType> = Default::default();
        for b in graph.boxes() {
            let key = (b.ctype.to_string(), b.label.to_string());
            let e = map.entry(key).or_insert_with(|| SchemaType {
                ctype: b.ctype.to_string(),
                label: b.label.to_string(),
                members: Vec::new(),
                count: 0,
            });
            e.count += 1;
            for view in &b.views {
                for item in &view.items {
                    let kind = match item {
                        Item::Text { .. } => MemberKind::Text,
                        Item::Link { .. } | Item::NullLink { .. } => MemberKind::Link,
                        Item::Container { .. } => MemberKind::Container,
                    };
                    if !e.members.iter().any(|m| m.name == item.name()) {
                        e.members.push(SchemaMember {
                            name: item.name().to_string(),
                            kind,
                        });
                    }
                }
            }
        }
        let mut types: Vec<SchemaType> = map.into_values().collect();
        types.sort_by_key(|t| std::cmp::Reverse(t.count));
        Schema { types }
    }

    /// Find a type by exact ctype or label.
    pub fn type_named(&self, name: &str) -> Option<&SchemaType> {
        self.types
            .iter()
            .find(|t| t.ctype == name || t.label == name)
    }

    /// Render the schema as prompt text (what §4.2's prompt embeds).
    pub fn to_prompt(&self) -> String {
        let mut s = String::from("A kernel object graph with the following box types:\n");
        for t in &self.types {
            let members: Vec<&str> = t.members.iter().map(|m| m.name.as_str()).collect();
            s.push_str(&format!(
                "- {} (label {}, {} instances): members {}\n",
                if t.ctype.is_empty() {
                    "<virtual>"
                } else {
                    &t.ctype
                },
                t.label,
                t.count,
                members.join(", ")
            ));
        }
        s
    }
}
