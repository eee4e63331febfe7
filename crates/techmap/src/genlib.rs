//! A reader for a practical subset of the Berkeley *genlib* standard-cell
//! description format, so external libraries can be used for mapping.
//!
//! Supported per cell:
//!
//! ```text
//! GATE <name> <area> <output>=<expression>;
//! PIN <name|*> <phase> <input-load> <max-load> <rise-block> <rise-fanout> <fall-block> <fall-fanout>
//! ```
//!
//! Expressions use `!` (not), `*` (and), `+` (or), `^` (xor), parentheses,
//! and the constants `CONST0`/`CONST1`. The cell delay is the maximum
//! block delay over its pins (a block delay model); cells without `PIN`
//! lines get delay 1. Cells with more than four inputs are rejected
//! (the mapper's cut limit).

use crate::library::{Cell, Library};
use std::fmt;

/// A genlib parse failure with the offending (1-based) line.
#[derive(Debug, Clone, PartialEq)]
pub struct GenlibError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line number.
    pub line: usize,
}

impl fmt::Display for GenlibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "genlib line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for GenlibError {}

/// Parses genlib text into a [`Library`].
///
/// `TIE0`, `TIE1`, and `INV` cells are required by the mapper; if the
/// file lacks them, defaults (area = smallest cell area, delay scaled
/// accordingly) are synthesized.
///
/// # Errors
///
/// Returns a [`GenlibError`] on syntax errors, unknown operators, or
/// cells with more than four inputs.
pub fn parse(text: &str) -> Result<Library, GenlibError> {
    let mut cells: Vec<(Cell, usize)> = Vec::new();
    let mut pending_delay: Option<(usize, f64)> = None; // (cell idx, max delay)

    for (n, raw) in text.lines().enumerate() {
        let line_no = n + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some("GATE") => {
                let name = toks
                    .next()
                    .ok_or_else(|| err("missing cell name", line_no))?
                    .to_string();
                let area: f64 = toks
                    .next()
                    .ok_or_else(|| err("missing area", line_no))?
                    .parse()
                    .map_err(|_| err("bad area", line_no))?;
                let rest: String = toks.collect::<Vec<_>>().join(" ");
                let body = rest.strip_suffix(';').unwrap_or(&rest).trim().to_string();
                let (_, expr) = body
                    .split_once('=')
                    .ok_or_else(|| err("expected `output=expression;`", line_no))?;
                let (mut tt, n_inputs) = eval_expression(expr.trim(), line_no)?;
                if n_inputs > 4 {
                    return Err(err(
                        format!(
                            "cell `{name}` has {n_inputs} inputs; the mapper supports at most 4"
                        ),
                        line_no,
                    ));
                }
                // Constant cells are padded to one (ignored) input; the
                // truth table must cover both values of that input.
                if n_inputs == 0 {
                    tt = if tt & 1 == 1 { 0b11 } else { 0b00 };
                }
                let idx = cells.len();
                cells.push((
                    Cell {
                        name,
                        n_inputs: n_inputs.max(1),
                        area,
                        delay: 1.0,
                        tt,
                    },
                    line_no,
                ));
                pending_delay = Some((idx, 0.0));
            }
            Some("PIN") => {
                let Some((idx, ref mut maxd)) = pending_delay else {
                    return Err(err("PIN before any GATE", line_no));
                };
                // name phase load maxload rise-block rise-fo fall-block fall-fo
                let fields: Vec<&str> = toks.collect();
                if fields.len() >= 8 {
                    let rise: f64 = fields[4].parse().unwrap_or(0.0);
                    let fall: f64 = fields[6].parse().unwrap_or(0.0);
                    let d = rise.max(fall);
                    if d > *maxd {
                        *maxd = d;
                        cells[idx].0.delay = d;
                    }
                }
            }
            Some(other) => return Err(err(format!("unexpected `{other}`"), line_no)),
            None => {}
        }
    }
    if cells.is_empty() {
        return Err(err("no GATE definitions found", 1));
    }

    let mut defs: Vec<Cell> = cells.into_iter().map(|(c, _)| c).collect();
    let min_area = defs.iter().map(|c| c.area).fold(f64::INFINITY, f64::min);
    let have = |defs: &[Cell], n: &str| defs.iter().any(|c| c.name == n);
    if !have(&defs, "TIE0") {
        defs.push(Cell {
            name: "TIE0".into(),
            n_inputs: 1,
            area: min_area / 2.0,
            delay: 0.0,
            tt: 0b00,
        });
    }
    if !have(&defs, "TIE1") {
        defs.push(Cell {
            name: "TIE1".into(),
            n_inputs: 1,
            area: min_area / 2.0,
            delay: 0.0,
            tt: 0b11,
        });
    }
    if !have(&defs, "INV") {
        defs.push(Cell {
            name: "INV".into(),
            n_inputs: 1,
            area: min_area,
            delay: 1.0,
            tt: 0b01,
        });
    }
    Ok(Library::from_cells("genlib", defs))
}

fn err(message: impl Into<String>, line: usize) -> GenlibError {
    GenlibError {
        message: message.into(),
        line,
    }
}

/// Evaluates a genlib boolean expression, returning the truth table over
/// the inputs in order of first appearance and the input count.
fn eval_expression(expr: &str, line: usize) -> Result<(u16, usize), GenlibError> {
    let mut p = Parser {
        chars: expr.chars().collect(),
        pos: 0,
        vars: Vec::new(),
        line,
    };
    let ast = p.parse_or()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(err(
            format!("trailing input after expression: `{}`", expr),
            line,
        ));
    }
    let k = p.vars.len();
    if k > 4 {
        return Ok((0, k)); // caller rejects on input count
    }
    let mut tt = 0u16;
    for assign in 0..1u16 << k {
        if eval_ast(&ast, assign) {
            tt |= 1 << assign;
        }
    }
    Ok((tt, k))
}

enum Ast {
    Var(usize),
    Const(bool),
    Not(Box<Ast>),
    And(Box<Ast>, Box<Ast>),
    Or(Box<Ast>, Box<Ast>),
    Xor(Box<Ast>, Box<Ast>),
}

fn eval_ast(ast: &Ast, assign: u16) -> bool {
    match ast {
        Ast::Var(i) => assign >> i & 1 == 1,
        Ast::Const(b) => *b,
        Ast::Not(a) => !eval_ast(a, assign),
        Ast::And(a, b) => eval_ast(a, assign) && eval_ast(b, assign),
        Ast::Or(a, b) => eval_ast(a, assign) || eval_ast(b, assign),
        Ast::Xor(a, b) => eval_ast(a, assign) ^ eval_ast(b, assign),
    }
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    vars: Vec<String>,
    line: usize,
}

impl Parser {
    fn skip_ws(&mut self) {
        while self.pos < self.chars.len() && self.chars[self.pos].is_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.chars.get(self.pos).copied()
    }

    fn parse_or(&mut self) -> Result<Ast, GenlibError> {
        let mut lhs = self.parse_xor()?;
        while self.peek() == Some('+') {
            self.pos += 1;
            let rhs = self.parse_xor()?;
            lhs = Ast::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_xor(&mut self) -> Result<Ast, GenlibError> {
        let mut lhs = self.parse_and()?;
        while self.peek() == Some('^') {
            self.pos += 1;
            let rhs = self.parse_and()?;
            lhs = Ast::Xor(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Ast, GenlibError> {
        let mut lhs = self.parse_factor()?;
        loop {
            match self.peek() {
                Some('*') => {
                    self.pos += 1;
                    let rhs = self.parse_factor()?;
                    lhs = Ast::And(Box::new(lhs), Box::new(rhs));
                }
                // Juxtaposition (`a b`) also means AND in genlib.
                Some(c) if c.is_alphanumeric() || c == '(' || c == '!' => {
                    let rhs = self.parse_factor()?;
                    lhs = Ast::And(Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn parse_factor(&mut self) -> Result<Ast, GenlibError> {
        match self.peek() {
            Some('!') => {
                self.pos += 1;
                Ok(Ast::Not(Box::new(self.parse_factor()?)))
            }
            Some('(') => {
                self.pos += 1;
                let inner = self.parse_or()?;
                if self.peek() != Some(')') {
                    return Err(err("missing `)`", self.line));
                }
                self.pos += 1;
                // Postfix ' is complement in some genlib dialects.
                if self.peek() == Some('\'') {
                    self.pos += 1;
                    return Ok(Ast::Not(Box::new(inner)));
                }
                Ok(inner)
            }
            Some(c) if c.is_alphanumeric() || c == '_' => {
                let start = self.pos;
                while self.pos < self.chars.len()
                    && (self.chars[self.pos].is_alphanumeric() || self.chars[self.pos] == '_')
                {
                    self.pos += 1;
                }
                let name: String = self.chars[start..self.pos].iter().collect();
                if name == "CONST0" {
                    return Ok(Ast::Const(false));
                }
                if name == "CONST1" {
                    return Ok(Ast::Const(true));
                }
                let idx = match self.vars.iter().position(|v| v == &name) {
                    Some(i) => i,
                    None => {
                        self.vars.push(name);
                        self.vars.len() - 1
                    }
                };
                if self.peek() == Some('\'') {
                    self.pos += 1;
                    return Ok(Ast::Not(Box::new(Ast::Var(idx))));
                }
                Ok(Ast::Var(idx))
            }
            other => Err(err(
                format!("unexpected {:?} in expression", other),
                self.line,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{map, MapMode};

    const MINI: &str = "\
# tiny demo library
GATE INV   1.0 Y=!A;
PIN A INV 1 999 1.0 0.2 1.0 0.2
GATE NAND2 2.0 Y=!(A*B);
PIN * INV 1 999 1.2 0.2 1.2 0.2
GATE AOI21 3.0 Y=!(A*B+C);
PIN * INV 1 999 1.5 0.2 1.5 0.2
GATE XOR2  5.0 Y=A^B;
PIN * UNKNOWN 2 999 2.0 0.3 2.0 0.3
";

    #[test]
    fn parses_cells_with_delays() {
        let lib = parse(MINI).unwrap();
        let names: Vec<&str> = lib.cells().iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"INV"));
        assert!(names.contains(&"NAND2"));
        assert!(names.contains(&"AOI21"));
        assert!(names.contains(&"TIE0"), "tie cells synthesized");
        let nand = lib.cells().iter().find(|c| c.name == "NAND2").unwrap();
        assert_eq!(nand.n_inputs, 2);
        assert_eq!(nand.tt, 0b0111);
        assert_eq!(nand.delay, 1.2);
        let aoi = lib.cells().iter().find(|c| c.name == "AOI21").unwrap();
        assert_eq!(aoi.n_inputs, 3);
        // !(a&b | c): check one minterm: a=1,b=1,c=0 -> 0.
        assert_eq!(aoi.tt >> 0b011 & 1, 0);
        assert_eq!(aoi.tt & 1, 1); // a=b=c=0 -> 1
        let xor = lib.cells().iter().find(|c| c.name == "XOR2").unwrap();
        assert_eq!(xor.tt, 0b0110);
    }

    #[test]
    fn mapping_with_a_parsed_library_preserves_function() {
        let lib = parse(MINI).unwrap();
        let g = benchgen::adders::rca(4);
        let m = map(&g, &lib, MapMode::Area);
        for p in 0..256usize {
            let ins: Vec<bool> = (0..8).map(|i| p >> i & 1 == 1).collect();
            assert_eq!(m.simulate(&ins), g.eval(&ins), "pattern {p}");
        }
    }

    #[test]
    fn expression_dialects() {
        let lib = parse("GATE OAI21 2.0 Y=((A+B)*C)';\n").unwrap();
        let c = &lib.cells()[0];
        assert_eq!(c.n_inputs, 3);
        // !( (a|b) & c ): a=0,b=0,c=1 -> 1; a=1,b=0,c=1 -> 0.
        assert_eq!(c.tt >> 0b100 & 1, 1);
        assert_eq!(c.tt >> 0b101 & 1, 0);
        // Constants.
        let lib = parse("GATE ZERO 0.5 Y=CONST0;\nGATE ONE 0.5 Y=CONST1;\n").unwrap();
        assert_eq!(lib.cells()[0].tt & 0b11, 0b00);
        assert_eq!(lib.cells()[1].tt & 0b11, 0b11);
    }

    #[test]
    fn errors_are_reported_with_lines() {
        assert!(parse("").is_err());
        let e = parse("GATE BAD 1.0 Y=A*;\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse("GATE OK 1.0 Y=A;\nNONSENSE\n").unwrap_err();
        assert_eq!(e.line, 2);
        // Five inputs exceed the mapper's cut size.
        let e = parse("GATE WIDE 1.0 Y=A*B*C*D*E;\n").unwrap_err();
        assert!(e.message.contains("at most 4"));
    }
}
