//! A combinational subset of Berkeley BLIF.
//!
//! Supported constructs: `.model`, `.inputs`, `.outputs`, `.names` with
//! sum-of-products cube covers (including constant covers), line
//! continuations with `\`, comments with `#`, and `.end`. Latches and
//! subcircuits are rejected.

use crate::ParseError;
use aig::{Aig, Lit};
use std::collections::HashMap;

/// Serializes `aig` as BLIF. Every AND gate becomes a two-input
/// `.names`; output polarity is encoded in single-cube covers.
pub fn write(aig: &Aig) -> String {
    let (g, _) = aig.compact().expect("acyclic");
    let mut s = format!(".model {}\n", sanitize(g.name()));
    s.push_str(".inputs");
    for k in 0..g.n_pis() {
        s.push_str(&format!(" {}", sanitize(g.pi_name(k))));
    }
    s.push('\n');
    s.push_str(".outputs");
    for o in g.outputs() {
        s.push_str(&format!(" {}", sanitize(&o.name)));
    }
    s.push('\n');
    let sig = |l: Lit| -> String {
        let n = l.node();
        if n == aig::NodeId::CONST0 {
            "const0".to_string()
        } else if n.index() <= g.n_pis() {
            sanitize(g.pi_name(n.index() - 1))
        } else {
            format!("n{}", n.index())
        }
    };
    // Constant-zero helper net, only if some gate references it.
    let uses_const = g
        .and_ids()
        .filter_map(|id| g.fanins(id))
        .any(|(a, b)| a.is_const() || b.is_const())
        || g.outputs().iter().any(|o| o.lit.is_const());
    if uses_const {
        s.push_str(".names const0\n");
    }
    for id in g.and_ids() {
        let (a, b) = g.fanins(id).expect("and");
        s.push_str(&format!(".names {} {} n{}\n", sig(a), sig(b), id.index()));
        s.push_str(&format!(
            "{}{} 1\n",
            if a.is_neg() { '0' } else { '1' },
            if b.is_neg() { '0' } else { '1' }
        ));
    }
    for o in g.outputs() {
        let name = sanitize(&o.name);
        if o.lit == Lit::FALSE {
            s.push_str(&format!(".names {name}\n"));
        } else if o.lit == Lit::TRUE {
            s.push_str(&format!(".names {name}\n1\n"));
        } else {
            s.push_str(&format!(".names {} {name}\n", sig(o.lit)));
            s.push_str(if o.lit.is_neg() { "0 1\n" } else { "1 1\n" });
        }
    }
    s.push_str(".end\n");
    s
}

fn sanitize(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect();
    if cleaned.is_empty() {
        "_".to_string()
    } else {
        cleaned
    }
}

/// Parses combinational BLIF text into an [`Aig`].
///
/// `.names` covers are built as a sum of product cubes; signals must be
/// defined before use or be primary inputs (bodies may appear in any
/// order — a two-pass resolution handles forward references).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, latches, or undefined
/// signals.
pub fn read(text: &str) -> Result<Aig, ParseError> {
    // Tokenize into logical lines (handling \ continuations, comments).
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (n, raw) in text.lines().enumerate() {
        let line = n + 1;
        let no_comment = raw.split('#').next().unwrap_or("");
        let (cont, body) = match no_comment.trim_end().strip_suffix('\\') {
            Some(b) => (true, b.to_string()),
            None => (false, no_comment.to_string()),
        };
        match pending.take() {
            Some((l0, mut acc)) => {
                acc.push(' ');
                acc.push_str(&body);
                if cont {
                    pending = Some((l0, acc));
                } else {
                    logical.push((l0, acc));
                }
            }
            None => {
                if cont {
                    pending = Some((line, body));
                } else if !body.trim().is_empty() {
                    logical.push((line, body));
                }
            }
        }
    }
    if let Some((l, _)) = pending {
        return Err(ParseError::at("dangling line continuation", l));
    }

    let mut model = "blif".to_string();
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    // Each .names: (line, signal names [inputs..., output], cubes).
    let mut tables: Vec<(usize, Vec<String>, Vec<String>)> = Vec::new();
    let mut idx = 0;
    while idx < logical.len() {
        let (line, ref body) = logical[idx];
        let mut toks = body.split_whitespace();
        let head = toks.next().unwrap_or("");
        match head {
            ".model" => model = toks.next().unwrap_or("blif").to_string(),
            ".inputs" => inputs.extend(toks.map(str::to_string)),
            ".outputs" => outputs.extend(toks.map(str::to_string)),
            ".names" => {
                let signals: Vec<String> = toks.map(str::to_string).collect();
                if signals.is_empty() {
                    return Err(ParseError::at(".names needs at least an output", line));
                }
                let mut cubes = Vec::new();
                while idx + 1 < logical.len() && !logical[idx + 1].1.trim_start().starts_with('.') {
                    idx += 1;
                    cubes.push(logical[idx].1.trim().to_string());
                }
                tables.push((line, signals, cubes));
            }
            ".end" => break,
            ".latch" | ".subckt" | ".gate" => {
                return Err(ParseError::at(format!("{head} is not supported"), line));
            }
            _ => return Err(ParseError::at(format!("unexpected `{head}`"), line)),
        }
        idx += 1;
    }
    if outputs.is_empty() {
        return Err(ParseError::new("no .outputs declared"));
    }

    let mut g = Aig::new(model, inputs.len());
    let mut env: HashMap<String, Lit> = HashMap::new();
    for (k, name) in inputs.iter().enumerate() {
        g.set_pi_name(k, name.clone());
        env.insert(name.clone(), g.pi(k));
    }
    // Multi-pass resolution to allow out-of-order definitions.
    let mut remaining = tables;
    loop {
        let before = remaining.len();
        let mut still: Vec<(usize, Vec<String>, Vec<String>)> = Vec::new();
        for (line, signals, cubes) in remaining {
            let deps = &signals[..signals.len() - 1];
            if deps.iter().all(|d| env.contains_key(d)) {
                let lit = build_cover(&mut g, &env, deps, &cubes, line)?;
                env.insert(signals.last().expect("nonempty").clone(), lit);
            } else {
                still.push((line, signals, cubes));
            }
        }
        if still.is_empty() {
            break;
        }
        if still.len() == before {
            let (line, signals, _) = &still[0];
            return Err(ParseError::at(
                format!(
                    "unresolved signals in .names for `{}`",
                    signals.last().expect("nonempty")
                ),
                *line,
            ));
        }
        remaining = still;
    }
    for name in &outputs {
        let lit = env
            .get(name)
            .copied()
            .ok_or_else(|| ParseError::new(format!("output `{name}` is undefined")))?;
        g.add_output(lit, name.clone());
    }
    Ok(g)
}

/// Builds the sum-of-products for one `.names` cover.
fn build_cover(
    g: &mut Aig,
    env: &HashMap<String, Lit>,
    deps: &[String],
    cubes: &[String],
    line: usize,
) -> Result<Lit, ParseError> {
    if deps.is_empty() {
        // Constant: empty cover = 0; a bare "1" line = 1.
        let one = cubes.iter().any(|c| c.trim() == "1");
        return Ok(if one { Lit::TRUE } else { Lit::FALSE });
    }
    let mut terms: Vec<Lit> = Vec::new();
    for cube in cubes {
        let mut parts = cube.split_whitespace();
        let pattern = parts.next().unwrap_or("");
        let value = parts.next().unwrap_or("1");
        if value != "1" {
            return Err(ParseError::at(
                "only on-set (`1`) covers are supported",
                line,
            ));
        }
        if pattern.len() != deps.len() {
            return Err(ParseError::at(
                format!(
                    "cube `{pattern}` has {} literals, expected {}",
                    pattern.len(),
                    deps.len()
                ),
                line,
            ));
        }
        let mut product: Vec<Lit> = Vec::new();
        for (c, dep) in pattern.chars().zip(deps) {
            let lit = env[dep];
            match c {
                '1' => product.push(lit),
                '0' => product.push(!lit),
                '-' => {}
                other => {
                    return Err(ParseError::at(
                        format!("bad cube character `{other}`"),
                        line,
                    ))
                }
            }
        }
        terms.push(g.and_many(&product));
    }
    Ok(g.or_many(&terms))
}
