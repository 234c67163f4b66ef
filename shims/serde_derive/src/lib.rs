//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]`
//! against the shim `serde` crate's value-tree data model. Because
//! `syn`/`quote` are unavailable offline, the item is parsed with a
//! small hand-rolled token walker and the impls are emitted as source
//! strings. Supported shapes (everything this workspace derives):
//!
//! * structs with named fields (non-generic); a field marked
//!   `#[serde(skip)]` is neither written nor read, and deserialises as
//!   `Default::default()`,
//! * tuple structs,
//! * enums with unit, tuple, and struct variants (discriminants
//!   allowed and ignored).

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum VariantShape {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

enum Shape {
    /// Serialised fields, then `#[serde(skip)]` ones.
    NamedStruct(Vec<String>, Vec<String>),
    TupleStruct(usize),
    Enum(Vec<(String, VariantShape)>),
}

struct Item {
    name: String,
    shape: Shape,
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.shape {
        Shape::NamedStruct(fields, _) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| format!("(\"{f}\".to_string(), serde::Serialize::to_value(&self.{f}))"))
                .collect();
            format!("serde::Value::Map(vec![{}])", entries.join(", "))
        }
        Shape::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("serde::Serialize::to_value(&self.{i})"))
                .collect();
            if *n == 1 {
                items[0].clone()
            } else {
                format!("serde::Value::Seq(vec![{}])", items.join(", "))
            }
        }
        Shape::Enum(variants) => {
            let name = &item.name;
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, shape)| match shape {
                    VariantShape::Unit => format!(
                        "{name}::{v} => serde::Value::Str(\"{v}\".to_string()),"
                    ),
                    VariantShape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let vals: Vec<String> = binds
                            .iter()
                            .map(|b| format!("serde::Serialize::to_value({b})"))
                            .collect();
                        let payload = if *n == 1 {
                            vals[0].clone()
                        } else {
                            format!("serde::Value::Seq(vec![{}])", vals.join(", "))
                        };
                        format!(
                            "{name}::{v}({binds}) => serde::Value::Map(vec![(\"{v}\".to_string(), {payload})]),",
                            binds = binds.join(", ")
                        )
                    }
                    VariantShape::Struct(fields) => {
                        let entries: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(\"{f}\".to_string(), serde::Serialize::to_value({f}))"
                                )
                            })
                            .collect();
                        format!(
                            "{name}::{v} {{ {fields} }} => serde::Value::Map(vec![(\"{v}\".to_string(), serde::Value::Map(vec![{entries}]))]),",
                            fields = fields.join(", "),
                            entries = entries.join(", ")
                        )
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "impl serde::Serialize for {} {{\n fn to_value(&self) -> serde::Value {{ {} }}\n}}",
        item.name, body
    )
    .parse()
    .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.shape {
        Shape::NamedStruct(fields, skipped) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: serde::Deserialize::from_value(serde::derive_support::field(v, \"{f}\")?)?"
                    )
                })
                .chain(skipped.iter().map(|f| format!("{f}: Default::default()")))
                .collect();
            format!("Ok({name} {{ {} }})", inits.join(", "))
        }
        Shape::TupleStruct(n) => {
            if *n == 1 {
                format!("Ok({name}(serde::Deserialize::from_value(v)?))")
            } else {
                let gets: Vec<String> = (0..*n)
                    .map(|i| format!("serde::Deserialize::from_value(xs[{i}])?"))
                    .collect();
                format!(
                    "let xs = serde::derive_support::tuple_payload(v, {n})?; Ok({name}({}))",
                    gets.join(", ")
                )
            }
        }
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, shape)| match shape {
                    VariantShape::Unit => format!("\"{v}\" => Ok({name}::{v}),"),
                    VariantShape::Tuple(n) => {
                        let gets: Vec<String> = (0..*n)
                            .map(|i| format!("serde::Deserialize::from_value(xs[{i}])?"))
                            .collect();
                        format!(
                            "\"{v}\" => {{ let xs = serde::derive_support::tuple_payload(payload, {n})?; Ok({name}::{v}({})) }}",
                            gets.join(", ")
                        )
                    }
                    VariantShape::Struct(fields) => {
                        let inits: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "{f}: serde::Deserialize::from_value(serde::derive_support::field(payload, \"{f}\")?)?"
                                )
                            })
                            .collect();
                        format!("\"{v}\" => Ok({name}::{v} {{ {} }}),", inits.join(", "))
                    }
                })
                .collect();
            format!(
                "let (tag, payload) = serde::derive_support::variant(v)?; let _ = payload; match tag {{ {} _ => Err(serde::DeError(format!(\"unknown variant `{{tag}}` of {name}\"))), }}",
                arms.join(" ")
            )
        }
    };
    format!(
        "impl serde::Deserialize for {name} {{\n fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {{ {body} }}\n}}"
    )
    .parse()
    .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------
// Token walking
// ---------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let mut toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&toks, &mut i);
    let kw = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim derive: expected `struct` or `enum`, got {other}"),
    };
    i += 1;
    let name = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other}"),
    };
    i += 1;
    if matches!(&toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic types are not supported (type `{name}`)");
    }
    let shape = match kw.as_str() {
        "struct" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let (fields, skipped) = parse_named_fields(g.stream());
                Shape::NamedStruct(fields, skipped)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(count_top_level_items(g.stream()))
            }
            _ => Shape::NamedStruct(Vec::new(), Vec::new()), // unit struct
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde shim derive: malformed enum body: {other:?}"),
        },
        other => panic!("serde shim derive: unsupported item kind `{other}`"),
    };
    let _ = toks.drain(..); // silence unused warnings on older toolchains
    Item { name, shape }
}

/// Skips leading `#[...]` attributes and a `pub` / `pub(...)` prefix.
fn skip_attrs_and_vis(toks: &[TokenTree], i: &mut usize) {
    loop {
        match toks.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // '#' and the bracket group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(toks.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return,
        }
    }
}

/// Counts comma-separated items at the top level of a token stream,
/// ignoring commas nested inside `<...>` (generic args) or groups.
fn count_top_level_items(ts: TokenStream) -> usize {
    let mut angle = 0i32;
    let mut items = 0usize;
    let mut saw_tok = false;
    for t in ts {
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                if saw_tok {
                    items += 1;
                }
                saw_tok = false;
                continue;
            }
            _ => {}
        }
        saw_tok = true;
    }
    items + usize::from(saw_tok)
}

/// Parses `name: Type, ...` named-field lists, returning the names of
/// the serialised fields and of the `#[serde(skip)]` ones.
fn parse_named_fields(ts: TokenStream) -> (Vec<String>, Vec<String>) {
    let toks: Vec<TokenTree> = ts.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    let mut skipped = Vec::new();
    while i < toks.len() {
        let mut skip = false;
        while let (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g))) =
            (toks.get(i), toks.get(i + 1))
        {
            if p.as_char() != '#' {
                break;
            }
            skip |= g.stream().to_string().replace(' ', "") == "serde(skip)";
            i += 2;
        }
        skip_attrs_and_vis(&toks, &mut i);
        let name = match toks.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde shim derive: expected field name, got {other:?}"),
        };
        i += 1;
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde shim derive: expected `:` after `{name}`, got {other:?}"),
        }
        skip_type(&toks, &mut i);
        if skip {
            skipped.push(name);
        } else {
            fields.push(name);
        }
    }
    (fields, skipped)
}

/// Parses enum variants, returning `(name, shape)` pairs.
fn parse_variants(ts: TokenStream) -> Vec<(String, VariantShape)> {
    let toks: Vec<TokenTree> = ts.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < toks.len() {
        skip_attrs_and_vis(&toks, &mut i);
        let name = match toks.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde shim derive: expected variant name, got {other:?}"),
        };
        i += 1;
        let shape = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_top_level_items(g.stream());
                i += 1;
                VariantShape::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let (fields, _) = parse_named_fields(g.stream());
                i += 1;
                VariantShape::Struct(fields)
            }
            _ => VariantShape::Unit,
        };
        // Skip an optional `= discriminant` and the trailing comma.
        skip_type(&toks, &mut i);
        variants.push((name, shape));
    }
    variants
}

/// Advances past tokens until a top-level `,` (angle-bracket aware),
/// consuming the comma.
fn skip_type(toks: &[TokenTree], i: &mut usize) {
    let mut angle = 0i32;
    while let Some(t) = toks.get(*i) {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                *i += 1;
                return;
            }
            _ => {}
        }
        *i += 1;
    }
}
