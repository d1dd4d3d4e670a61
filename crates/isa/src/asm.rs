//! Two-pass text assembler.
//!
//! The accepted syntax is a pragmatic subset of ARM UAL:
//!
//! ```text
//! ; comment        @ comment        // comment
//!         .org   0x0
//!         .equ   TABLE, 0x400
//! start:  trig   #1
//!         mov    r0, #0xff
//!         adds   r1, r2, r3          ; flag-setting
//!         add    r1, r2, r3, lsl #4  ; shifted operand
//!         lsl    r4, r5, #2          ; = mov r4, r5, lsl #2
//!         mul    r6, r7, r8
//!         ldrb   r0, [r1, #1]
//!         str    r0, [r1], #4        ; post-index
//!         adr    r2, table           ; address constant
//! loop:   subs   r0, r0, #1
//!         bne    loop
//!         trig   #0
//!         halt
//! table:  .word  0xdeadbeef, 42
//!         .byte  1, 2, 3, 4
//!         .space 16
//!         .align 4
//! ```
//!
//! Labels resolve across the whole file (forward references allowed);
//! `.equ` constants must be defined before use. `b`/`bl` accept a label or
//! an absolute expression. The assembled [`Program`] records a symbol table
//! and an address → source-line map used by the leakage audit tooling.

use std::collections::BTreeMap;

use crate::{
    encode, AddrMode, Cond, DpOp, IndexMode, Insn, InsnKind, IsaError, MemDir, MemMultiMode,
    MemOffset, MemSize, MulOp, Operand2, Program, Reg, RegSet, RotatedImm, ShiftAmount, ShiftKind,
};

/// Assembles a source string into a [`Program`].
///
/// # Errors
///
/// Returns [`IsaError::Asm`] with a 1-based line number for syntax errors,
/// undefined symbols, and range violations.
///
/// ```
/// let program = sca_isa::assemble("
///     mov r0, #1
///     halt
/// ")?;
/// assert_eq!(program.len_bytes(), 8);
/// # Ok::<(), sca_isa::IsaError>(())
/// ```
pub fn assemble(source: &str) -> Result<Program, IsaError> {
    Assembler::new().assemble(source)
}

/// Assembles a source string through a caller-supplied memo cell: the
/// first call assembles and caches the image, later calls clone the
/// cached [`Program`]. Embedded cipher sources are assembled once per
/// process this way, so campaign code can re-stage a program image
/// without re-running the assembler.
///
/// ```
/// use std::sync::OnceLock;
/// static CACHE: OnceLock<sca_isa::Program> = OnceLock::new();
/// let a = sca_isa::assemble_cached("mov r0, #1\nhalt\n", &CACHE)?;
/// let b = sca_isa::assemble_cached("ignored on later calls", &CACHE)?;
/// assert_eq!(a.words(), b.words());
/// # Ok::<(), sca_isa::IsaError>(())
/// ```
///
/// # Errors
///
/// Propagates [`assemble`] errors (nothing is cached on failure).
pub fn assemble_cached(
    source: &str,
    cache: &'static std::sync::OnceLock<Program>,
) -> Result<Program, IsaError> {
    if let Some(program) = cache.get() {
        return Ok(program.clone());
    }
    let program = assemble(source)?;
    Ok(cache.get_or_init(|| program).clone())
}

/// The assembler. Construct with [`Assembler::new`], optionally seed
/// constants with [`Assembler::define`], then call
/// [`Assembler::assemble`].
#[derive(Clone, Debug, Default)]
pub struct Assembler {
    predefined: BTreeMap<String, i64>,
}

impl Assembler {
    /// Creates an assembler with no predefined symbols.
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Predefines a constant visible to the source (like `-D` for a C
    /// compiler); useful for parameterizing benchmark kernels.
    pub fn define(mut self, name: impl Into<String>, value: i64) -> Assembler {
        self.predefined.insert(name.into(), value);
        self
    }

    /// Runs both assembler passes over `source`.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Asm`] describing the first error encountered.
    pub fn assemble(&self, source: &str) -> Result<Program, IsaError> {
        let mut lines = Vec::new();
        for (idx, text) in source.lines().enumerate() {
            lines.push(parse_line(idx + 1, text)?);
        }

        // Pass 1: lay out addresses and collect labels.
        let mut symbols = self.predefined.clone();
        let mut origin: Option<u32> = None;
        let mut emitted_any = false;
        let mut cursor: u32 = 0;
        for line in &lines {
            for label in &line.labels {
                if symbols.contains_key(label) {
                    return Err(IsaError::asm(
                        line.number,
                        format!("duplicate symbol `{label}`"),
                    ));
                }
                symbols.insert(label.clone(), i64::from(cursor));
            }
            match &line.stmt {
                None => {}
                Some(Stmt::Org(expr)) => {
                    let addr = org_address(expr, &symbols, line.number)?;
                    if !emitted_any && origin.is_none() {
                        origin = Some(addr);
                    } else if addr < cursor {
                        return Err(IsaError::asm(line.number, ".org going backwards"));
                    }
                    cursor = addr;
                    // Re-bind labels on this line to the new origin.
                    for label in &line.labels {
                        symbols.insert(label.clone(), i64::from(cursor));
                    }
                }
                Some(Stmt::Equ(name, expr)) => {
                    let value = expr.eval(&symbols, line.number)?;
                    symbols.insert(name.clone(), value);
                }
                Some(stmt) => {
                    emitted_any = true;
                    cursor = advance(cursor, stmt.size(cursor, line.number)?, line.number)?;
                }
            }
        }

        // Pass 2: emit.
        let base = origin.unwrap_or(0);
        let mut image: Vec<u8> = Vec::new();
        let mut program = Program::from_words(0, Vec::new());
        program.set_base(base);
        let mut line_of_addr: Vec<(u32, usize)> = Vec::new();
        let mut cursor = base;
        // .equ values may shadow labels; rebuild with labels fixed relative
        // to the base address.
        let mut symbols2 = self.predefined.clone();
        {
            let mut scan_cursor = base;
            for line in &lines {
                for label in &line.labels {
                    symbols2.insert(label.clone(), i64::from(scan_cursor));
                }
                match &line.stmt {
                    None => {}
                    Some(Stmt::Org(expr)) => {
                        scan_cursor = org_address(expr, &symbols2, line.number)?;
                        for label in &line.labels {
                            symbols2.insert(label.clone(), i64::from(scan_cursor));
                        }
                    }
                    Some(Stmt::Equ(name, expr)) => {
                        let value = expr.eval(&symbols2, line.number)?;
                        symbols2.insert(name.clone(), value);
                    }
                    Some(stmt) => {
                        let size = stmt.size(scan_cursor, line.number)?;
                        scan_cursor = advance(scan_cursor, size, line.number)?;
                    }
                }
            }
        }
        let symbols = symbols2;

        let emit = |image: &mut Vec<u8>, cursor: &mut u32, bytes: &[u8], line: usize| {
            let offset = cursor
                .checked_sub(base)
                .ok_or_else(|| IsaError::asm(line, "emitting below the image base"))?
                as usize;
            if image.len() < offset {
                image.resize(offset, 0);
            }
            if image.len() == offset {
                image.extend_from_slice(bytes);
            } else {
                // .org may not overlap already-emitted content; pass 1
                // enforces forward movement, so this is zero padding only.
                for (i, b) in bytes.iter().enumerate() {
                    if offset + i < image.len() {
                        image[offset + i] = *b;
                    } else {
                        image.push(*b);
                    }
                }
            }
            *cursor = advance(*cursor, bytes.len() as u32, line)?;
            Ok::<(), IsaError>(())
        };

        for line in &lines {
            match &line.stmt {
                None | Some(Stmt::Equ(..)) => {}
                Some(Stmt::Org(expr)) => {
                    cursor = org_address(expr, &symbols, line.number)?;
                }
                Some(Stmt::Word(exprs)) => {
                    align_to(&mut image, &mut cursor, base, 4);
                    for expr in exprs {
                        let value = expr.eval(&symbols, line.number)? as u32;
                        emit(&mut image, &mut cursor, &value.to_le_bytes(), line.number)?;
                    }
                }
                Some(Stmt::Byte(exprs)) => {
                    for expr in exprs {
                        let value = expr.eval(&symbols, line.number)?;
                        emit(
                            &mut image,
                            &mut cursor,
                            &[(value & 0xff) as u8],
                            line.number,
                        )?;
                    }
                }
                Some(Stmt::Space(expr)) => {
                    let count = expr.eval(&symbols, line.number)?;
                    if count < 0 {
                        return Err(IsaError::asm(line.number, "negative .space"));
                    }
                    emit(
                        &mut image,
                        &mut cursor,
                        &vec![0u8; count as usize],
                        line.number,
                    )?;
                }
                Some(Stmt::Align(expr)) => {
                    let align = expr.eval(&symbols, line.number)?;
                    if align <= 0 || (align & (align - 1)) != 0 {
                        return Err(IsaError::asm(line.number, ".align must be a power of two"));
                    }
                    align_to(&mut image, &mut cursor, base, align as u32);
                }
                Some(Stmt::Insn(pinsn)) => {
                    align_to(&mut image, &mut cursor, base, 4);
                    let insn = pinsn.resolve(cursor, &symbols, line.number)?;
                    let word =
                        encode(&insn).map_err(|e| IsaError::asm(line.number, e.to_string()))?;
                    line_of_addr.push((cursor, line.number));
                    emit(&mut image, &mut cursor, &word.to_le_bytes(), line.number)?;
                }
            }
        }

        while !image.len().is_multiple_of(4) {
            image.push(0);
        }
        for chunk in image.chunks_exact(4) {
            program.push_word(u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        }
        for (name, value) in &symbols {
            if !self.predefined.contains_key(name) {
                program.insert_symbol(name.clone(), *value as u32);
            }
        }
        for (addr, number) in line_of_addr {
            program.insert_source_line(addr, number);
        }
        let entry = program
            .symbol("start")
            .or_else(|| program.symbol("_start"))
            .unwrap_or(base);
        program.set_entry(entry);
        Ok(program)
    }
}

/// Evaluates a `.org` target, which must lie in the 32-bit address space.
fn org_address(expr: &Expr, symbols: &BTreeMap<String, i64>, line: usize) -> Result<u32, IsaError> {
    let addr = expr.eval(symbols, line)?;
    u32::try_from(addr)
        .map_err(|_| IsaError::asm(line, format!(".org address {addr} out of range")))
}

/// Moves the layout cursor past `size` bytes; the image must end inside
/// the 32-bit address space.
fn advance(cursor: u32, size: u32, line: usize) -> Result<u32, IsaError> {
    cursor
        .checked_add(size)
        .ok_or_else(|| IsaError::asm(line, "image runs past the 32-bit address space"))
}

fn align_to(image: &mut Vec<u8>, cursor: &mut u32, base: u32, align: u32) {
    while !cursor.is_multiple_of(align) {
        let offset = (*cursor - base) as usize;
        if image.len() <= offset {
            image.push(0);
        }
        *cursor += 1;
    }
}

// ---------------------------------------------------------------------------
// Line AST

#[derive(Debug)]
struct Line {
    number: usize,
    labels: Vec<String>,
    stmt: Option<Stmt>,
}

#[derive(Debug)]
enum Stmt {
    Insn(PInsn),
    Word(Vec<Expr>),
    Byte(Vec<Expr>),
    Space(Expr),
    Align(Expr),
    Org(Expr),
    Equ(String, Expr),
}

impl Stmt {
    /// Size in bytes when laid out at `cursor` (pass 1).
    fn size(&self, cursor: u32, line: usize) -> Result<u32, IsaError> {
        // Instructions and words force word alignment.
        let words = |count: usize| {
            let pad = cursor.checked_next_multiple_of(4)? - cursor;
            u32::try_from(count).ok()?.checked_mul(4)?.checked_add(pad)
        };
        let overflow = || IsaError::asm(line, "image runs past the 32-bit address space");
        Ok(match self {
            Stmt::Insn(_) => words(1).ok_or_else(overflow)?,
            Stmt::Word(exprs) => words(exprs.len()).ok_or_else(overflow)?,
            Stmt::Byte(exprs) => exprs.len() as u32,
            Stmt::Space(expr) => {
                // Sizes must be known in pass 1: only constants allowed.
                let n = expr
                    .eval(&BTreeMap::new(), line)
                    .map_err(|_| IsaError::asm(line, ".space size must be a literal constant"))?;
                if n < 0 {
                    return Err(IsaError::asm(line, "negative .space"));
                }
                u32::try_from(n).map_err(|_| overflow())?
            }
            Stmt::Align(expr) => {
                let align = expr
                    .eval(&BTreeMap::new(), line)
                    .map_err(|_| IsaError::asm(line, ".align must be a literal constant"))?
                    as u32;
                if align == 0 || !align.is_power_of_two() {
                    return Err(IsaError::asm(line, ".align must be a power of two"));
                }
                (align - cursor % align) % align
            }
            Stmt::Org(_) | Stmt::Equ(..) => 0,
        })
    }
}

/// Instruction, possibly with an unresolved target expression.
#[derive(Debug)]
enum PInsn {
    Ready(Insn),
    Branch {
        cond: Cond,
        link: bool,
        target: Expr,
    },
    Adr {
        cond: Cond,
        rd: Reg,
        target: Expr,
    },
    /// Data-processing with a symbolic immediate (e.g. `mov r0, #STATE`),
    /// resolved against the symbol table in pass 2.
    DpImm {
        cond: Cond,
        op: DpOp,
        set_flags: bool,
        rd: Option<Reg>,
        rn: Option<Reg>,
        imm: Expr,
    },
}

impl PInsn {
    fn resolve(
        &self,
        addr: u32,
        symbols: &BTreeMap<String, i64>,
        line: usize,
    ) -> Result<Insn, IsaError> {
        match self {
            PInsn::Ready(insn) => Ok(*insn),
            PInsn::Branch { cond, link, target } => {
                let target = target.eval(symbols, line)? as u32;
                let delta = target.wrapping_sub(addr.wrapping_add(4)) as i32;
                if delta % 4 != 0 {
                    return Err(IsaError::asm(line, "branch target not word aligned"));
                }
                Ok(Insn::new(InsnKind::Branch {
                    link: *link,
                    offset: delta / 4,
                })
                .with_cond(*cond))
            }
            PInsn::Adr { cond, rd, target } => {
                let value = target.eval(symbols, line)? as u32;
                if RotatedImm::encode(value).is_none() {
                    return Err(IsaError::asm(
                        line,
                        format!("adr target 0x{value:x} not encodable as an immediate"),
                    ));
                }
                Ok(Insn::mov(*rd, value).with_cond(*cond))
            }
            PInsn::DpImm {
                cond,
                op,
                set_flags,
                rd,
                rn,
                imm,
            } => {
                let value = imm.eval(symbols, line)? as u32;
                Ok(Insn::new(InsnKind::Dp {
                    op: *op,
                    set_flags: *set_flags,
                    rd: *rd,
                    rn: *rn,
                    op2: Operand2::Imm(value),
                })
                .with_cond(*cond))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Expressions

#[derive(Clone, Debug)]
enum Term {
    Num(i64),
    Sym(String),
}

#[derive(Clone, Debug)]
struct Expr {
    /// `(sign, term)` pairs summed left to right.
    terms: Vec<(i64, Term)>,
}

impl Expr {
    fn eval(&self, symbols: &BTreeMap<String, i64>, line: usize) -> Result<i64, IsaError> {
        let mut total = 0i64;
        for (sign, term) in &self.terms {
            let value = match term {
                Term::Num(n) => *n,
                Term::Sym(name) => *symbols
                    .get(name)
                    .ok_or_else(|| IsaError::asm(line, format!("undefined symbol `{name}`")))?,
            };
            total = sign
                .checked_mul(value)
                .and_then(|term| total.checked_add(term))
                .ok_or_else(|| IsaError::asm(line, "expression overflows 64 bits"))?;
        }
        Ok(total)
    }
}

// ---------------------------------------------------------------------------
// Lexer

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Directive(String),
    Num(i64),
    Comma,
    Colon,
    Hash,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Bang,
    Plus,
    Minus,
    Eq,
}

fn lex(line_no: usize, text: &str) -> Result<Vec<Tok>, IsaError> {
    let mut toks = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' => i += 1,
            ';' | '@' => break,
            '/' if bytes.get(i + 1) == Some(&b'/') => break,
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            ':' => {
                toks.push(Tok::Colon);
                i += 1;
            }
            '#' => {
                toks.push(Tok::Hash);
                i += 1;
            }
            '[' => {
                toks.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                toks.push(Tok::RBracket);
                i += 1;
            }
            '{' => {
                toks.push(Tok::LBrace);
                i += 1;
            }
            '}' => {
                toks.push(Tok::RBrace);
                i += 1;
            }
            '!' => {
                toks.push(Tok::Bang);
                i += 1;
            }
            '+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                toks.push(Tok::Minus);
                i += 1;
            }
            '=' => {
                toks.push(Tok::Eq);
                i += 1;
            }
            '.' => {
                let start = i + 1;
                let mut end = start;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                if end == start {
                    return Err(IsaError::asm(line_no, "stray `.`"));
                }
                toks.push(Tok::Directive(text[start..end].to_ascii_lowercase()));
                i = end;
            }
            '0'..='9' => {
                let start = i;
                let mut end = i;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                let raw = text[start..end].replace('_', "");
                let value = if let Some(hex) = raw.strip_prefix("0x").or(raw.strip_prefix("0X")) {
                    i64::from_str_radix(hex, 16)
                } else if let Some(bin) = raw.strip_prefix("0b").or(raw.strip_prefix("0B")) {
                    i64::from_str_radix(bin, 2)
                } else {
                    raw.parse()
                }
                .map_err(|_| IsaError::asm(line_no, format!("bad number `{raw}`")))?;
                toks.push(Tok::Num(value));
                i = end;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut end = i;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                toks.push(Tok::Ident(text[start..end].to_owned()));
                i = end;
            }
            other => {
                return Err(IsaError::asm(
                    line_no,
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }
    Ok(toks)
}

// ---------------------------------------------------------------------------
// Parser

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    line: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let tok = self.toks.get(self.pos).cloned();
        if tok.is_some() {
            self.pos += 1;
        }
        tok
    }

    fn expect(&mut self, tok: &Tok) -> Result<(), IsaError> {
        match self.next() {
            Some(t) if t == *tok => Ok(()),
            other => Err(self.err(format!("expected {tok:?}, found {other:?}"))),
        }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn err(&self, message: impl Into<String>) -> IsaError {
        IsaError::asm(self.line, message)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn ident(&mut self) -> Result<String, IsaError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn reg(&mut self) -> Result<Reg, IsaError> {
        let name = self.ident()?;
        name.parse().map_err(|e: IsaError| self.err(e.to_string()))
    }

    fn expr(&mut self) -> Result<Expr, IsaError> {
        let mut terms = Vec::new();
        let mut sign = 1i64;
        if self.eat(&Tok::Minus) {
            sign = -1;
        } else {
            self.eat(&Tok::Plus);
        }
        loop {
            match self.next() {
                Some(Tok::Num(n)) => terms.push((sign, Term::Num(n))),
                Some(Tok::Ident(s)) => terms.push((sign, Term::Sym(s))),
                other => return Err(self.err(format!("expected expression term, found {other:?}"))),
            }
            if self.eat(&Tok::Plus) {
                sign = 1;
            } else if self.eat(&Tok::Minus) {
                sign = -1;
            } else {
                break;
            }
        }
        Ok(Expr { terms })
    }

    /// `#expr`
    fn imm(&mut self) -> Result<Expr, IsaError> {
        self.expect(&Tok::Hash)?;
        self.expr()
    }
}

fn parse_line(number: usize, text: &str) -> Result<Line, IsaError> {
    let toks = lex(number, text)?;
    let mut parser = Parser {
        toks,
        pos: 0,
        line: number,
    };
    let mut labels = Vec::new();

    // Leading `ident :` pairs are labels.
    while let (Some(Tok::Ident(name)), Some(Tok::Colon)) =
        (parser.toks.get(parser.pos), parser.toks.get(parser.pos + 1))
    {
        labels.push(name.clone());
        parser.pos += 2;
    }

    if parser.at_end() {
        return Ok(Line {
            number,
            labels,
            stmt: None,
        });
    }

    let stmt = match parser.next().expect("not at end") {
        Tok::Directive(name) => parse_directive(&mut parser, &name)?,
        Tok::Ident(mnemonic) => Stmt::Insn(parse_insn(&mut parser, &mnemonic)?),
        other => return Err(parser.err(format!("unexpected token {other:?}"))),
    };
    if !parser.at_end() {
        return Err(parser.err("trailing tokens after statement"));
    }
    Ok(Line {
        number,
        labels,
        stmt: Some(stmt),
    })
}

fn parse_directive(parser: &mut Parser, name: &str) -> Result<Stmt, IsaError> {
    match name {
        "word" => {
            let mut exprs = vec![parser.expr()?];
            while parser.eat(&Tok::Comma) {
                exprs.push(parser.expr()?);
            }
            Ok(Stmt::Word(exprs))
        }
        "byte" => {
            let mut exprs = vec![parser.expr()?];
            while parser.eat(&Tok::Comma) {
                exprs.push(parser.expr()?);
            }
            Ok(Stmt::Byte(exprs))
        }
        "space" | "skip" => Ok(Stmt::Space(parser.expr()?)),
        "align" => Ok(Stmt::Align(parser.expr()?)),
        "org" => Ok(Stmt::Org(parser.expr()?)),
        "equ" | "set" => {
            let name = parser.ident()?;
            parser.expect(&Tok::Comma)?;
            let expr = parser.expr()?;
            Ok(Stmt::Equ(name, expr))
        }
        other => Err(parser.err(format!("unknown directive `.{other}`"))),
    }
}

/// Splits `mnemonic` = base ++ cond? ++ "s"? against the known base table,
/// preferring the longest base (so `bls` parses as `b.ls`, `bleq` as
/// `bl.eq`, `adds` as `add.s`).
fn split_mnemonic(raw: &str) -> Option<(&'static str, Cond, bool)> {
    const BASES: [&str; 45] = [
        "strb", "strh", "ldrb", "ldrh", "trig", "halt", "and", "eor", "sub", "rsb", "add", "adc",
        "sbc", "bic", "cmp", "cmn", "tst", "teq", "mov", "mvn", "orr", "lsl", "lsr", "asr", "ror",
        "mul", "mla", "ldr", "str", "nop", "adr", "bl", "bx", "b", "rrx", "ldmia", "ldmdb",
        "ldmfd", "stmia", "stmdb", "stmfd", "push", "pop", "umull", "smull",
    ];
    let lower = raw.to_ascii_lowercase();
    let mut candidates: Vec<&'static str> = BASES
        .iter()
        .copied()
        .filter(|b| lower.starts_with(b))
        .collect();
    candidates.sort_by_key(|b| std::cmp::Reverse(b.len()));
    for base in candidates {
        let rest = &lower[base.len()..];
        let allows_s = matches!(
            base,
            "and"
                | "eor"
                | "sub"
                | "rsb"
                | "add"
                | "adc"
                | "sbc"
                | "bic"
                | "mov"
                | "mvn"
                | "orr"
                | "lsl"
                | "lsr"
                | "asr"
                | "ror"
                | "mul"
                | "mla"
        );
        let (rest, set_flags) = match rest.strip_suffix('s') {
            // Guard: `cs`/`ls`/`vs` are conditions ending in s.
            Some(head) if allows_s && head.len() != 1 => (head, true),
            _ => (rest, false),
        };
        if rest.is_empty() {
            return Some((base, Cond::Al, set_flags));
        }
        if let Ok(cond) = rest.parse::<Cond>() {
            return Some((base, cond, set_flags));
        }
    }
    None
}

fn parse_insn(parser: &mut Parser, mnemonic: &str) -> Result<PInsn, IsaError> {
    let (base, cond, set_flags) = split_mnemonic(mnemonic)
        .ok_or_else(|| parser.err(format!("unknown mnemonic `{mnemonic}`")))?;

    let finish_dp =
        |op: DpOp, set_flags: bool, rd: Option<Reg>, rn: Option<Reg>, op2: Op2Parse| -> PInsn {
            match op2 {
                Op2Parse::Ready(op2) => PInsn::Ready(
                    Insn::new(InsnKind::Dp {
                        op,
                        set_flags,
                        rd,
                        rn,
                        op2,
                    })
                    .with_cond(cond),
                ),
                Op2Parse::ImmExpr(imm) => PInsn::DpImm {
                    cond,
                    op,
                    set_flags,
                    rd,
                    rn,
                    imm,
                },
            }
        };
    let dp3 = |op: DpOp, parser: &mut Parser| -> Result<PInsn, IsaError> {
        let rd = parser.reg()?;
        parser.expect(&Tok::Comma)?;
        let rn = parser.reg()?;
        parser.expect(&Tok::Comma)?;
        let op2 = parse_operand2(parser)?;
        Ok(finish_dp(op, set_flags, Some(rd), Some(rn), op2))
    };

    match base {
        "mov" | "mvn" => {
            let op = if base == "mov" { DpOp::Mov } else { DpOp::Mvn };
            let rd = parser.reg()?;
            parser.expect(&Tok::Comma)?;
            let op2 = parse_operand2(parser)?;
            Ok(finish_dp(op, set_flags, Some(rd), None, op2))
        }
        "and" => dp3(DpOp::And, parser),
        "eor" => dp3(DpOp::Eor, parser),
        "sub" => dp3(DpOp::Sub, parser),
        "rsb" => dp3(DpOp::Rsb, parser),
        "add" => dp3(DpOp::Add, parser),
        "adc" => dp3(DpOp::Adc, parser),
        "sbc" => dp3(DpOp::Sbc, parser),
        "bic" => dp3(DpOp::Bic, parser),
        "orr" => dp3(DpOp::Orr, parser),
        "cmp" | "cmn" | "tst" | "teq" => {
            let op = match base {
                "cmp" => DpOp::Cmp,
                "cmn" => DpOp::Cmn,
                "tst" => DpOp::Tst,
                _ => DpOp::Teq,
            };
            let rn = parser.reg()?;
            parser.expect(&Tok::Comma)?;
            let op2 = parse_operand2(parser)?;
            Ok(finish_dp(op, true, None, Some(rn), op2))
        }
        "lsl" | "lsr" | "asr" | "ror" => {
            let kind: ShiftKind = base.parse().expect("shift mnemonic");
            let rd = parser.reg()?;
            parser.expect(&Tok::Comma)?;
            let rm = parser.reg()?;
            parser.expect(&Tok::Comma)?;
            let amount = if parser.eat(&Tok::Hash) {
                let expr = parser.expr()?;
                let value = expr
                    .eval(&BTreeMap::new(), parser.line)
                    .map_err(|_| parser.err("shift amount must be a literal constant"))?;
                if !(0..=31).contains(&value) {
                    return Err(parser.err("shift amount outside 0..=31"));
                }
                ShiftAmount::Imm(value as u8)
            } else {
                ShiftAmount::Reg(parser.reg()?)
            };
            Ok(PInsn::Ready(
                Insn::new(InsnKind::Dp {
                    op: DpOp::Mov,
                    set_flags,
                    rd: Some(rd),
                    rn: None,
                    op2: Operand2::ShiftedReg { rm, kind, amount },
                })
                .with_cond(cond),
            ))
        }
        "mul" | "mla" => {
            let rd = parser.reg()?;
            parser.expect(&Tok::Comma)?;
            let rm = parser.reg()?;
            parser.expect(&Tok::Comma)?;
            let rs = parser.reg()?;
            let (op, ra) = if base == "mla" {
                parser.expect(&Tok::Comma)?;
                (MulOp::Mla, Some(parser.reg()?))
            } else {
                (MulOp::Mul, None)
            };
            Ok(PInsn::Ready(
                Insn::new(InsnKind::Mul {
                    op,
                    set_flags,
                    rd,
                    rm,
                    rs,
                    ra,
                })
                .with_cond(cond),
            ))
        }
        "ldr" | "ldrb" | "ldrh" | "str" | "strb" | "strh" => {
            let dir = if base.starts_with("ldr") {
                MemDir::Load
            } else {
                MemDir::Store
            };
            let size = match base.as_bytes().last() {
                Some(b'b') => MemSize::Byte,
                Some(b'h') => MemSize::Half,
                _ => MemSize::Word,
            };
            let rd = parser.reg()?;
            parser.expect(&Tok::Comma)?;
            let addr = parse_addr_mode(parser)?;
            Ok(PInsn::Ready(
                Insn::new(InsnKind::Mem {
                    dir,
                    size,
                    rd,
                    addr,
                })
                .with_cond(cond),
            ))
        }
        "b" | "bl" => {
            let target = parser.expr()?;
            Ok(PInsn::Branch {
                cond,
                link: base == "bl",
                target,
            })
        }
        "bx" => Ok(PInsn::Ready(Insn::bx(parser.reg()?).with_cond(cond))),
        "adr" => {
            let rd = parser.reg()?;
            parser.expect(&Tok::Comma)?;
            let target = parser.expr()?;
            Ok(PInsn::Adr { cond, rd, target })
        }
        "ldmia" | "ldmdb" | "ldmfd" | "stmia" | "stmdb" | "stmfd" => {
            // fd ("full descending") aliases: ldmfd = ldmia, stmfd = stmdb.
            let dir = if base.starts_with("ldm") {
                MemDir::Load
            } else {
                MemDir::Store
            };
            let mode = match &base[3..] {
                "ia" => MemMultiMode::Ia,
                "db" => MemMultiMode::Db,
                _ if dir == MemDir::Load => MemMultiMode::Ia,
                _ => MemMultiMode::Db,
            };
            let base_reg = parser.reg()?;
            let writeback = parser.eat(&Tok::Bang);
            parser.expect(&Tok::Comma)?;
            let regs = parse_reg_list(parser)?;
            Ok(PInsn::Ready(
                Insn::new(InsnKind::MemMulti {
                    dir,
                    base: base_reg,
                    writeback,
                    regs,
                    mode,
                })
                .with_cond(cond),
            ))
        }
        "push" | "pop" => {
            let regs = parse_reg_list(parser)?;
            let insn = if base == "push" {
                Insn::push(regs)
            } else {
                Insn::pop(regs)
            };
            Ok(PInsn::Ready(insn.with_cond(cond)))
        }
        "umull" | "smull" => {
            let rd_lo = parser.reg()?;
            parser.expect(&Tok::Comma)?;
            let rd_hi = parser.reg()?;
            parser.expect(&Tok::Comma)?;
            let rm = parser.reg()?;
            parser.expect(&Tok::Comma)?;
            let rs = parser.reg()?;
            let insn = if base == "umull" {
                Insn::umull(rd_lo, rd_hi, rm, rs)
            } else {
                Insn::smull(rd_lo, rd_hi, rm, rs)
            };
            Ok(PInsn::Ready(insn.with_cond(cond)))
        }
        "nop" => Ok(PInsn::Ready(Insn::nop().with_cond(cond))),
        "trig" => {
            let expr = parser.imm()?;
            let value = expr
                .eval(&BTreeMap::new(), parser.line)
                .map_err(|_| parser.err("trig level must be a literal 0 or 1"))?;
            Ok(PInsn::Ready(Insn::trig(value != 0).with_cond(cond)))
        }
        "halt" => Ok(PInsn::Ready(Insn::halt().with_cond(cond))),
        other => Err(parser.err(format!("unhandled mnemonic `{other}`"))),
    }
}

/// A parsed flexible operand: either fully resolved, or an immediate
/// expression carrying symbols for pass-2 resolution.
enum Op2Parse {
    Ready(Operand2),
    ImmExpr(Expr),
}

fn parse_operand2(parser: &mut Parser) -> Result<Op2Parse, IsaError> {
    if parser.peek() == Some(&Tok::Hash) {
        let expr = parser.imm()?;
        return match expr.eval(&BTreeMap::new(), parser.line) {
            Ok(value) => Ok(Op2Parse::Ready(Operand2::Imm(value as u32))),
            Err(_) => Ok(Op2Parse::ImmExpr(expr)),
        };
    }
    let rm = parser.reg()?;
    if !parser.eat(&Tok::Comma) {
        return Ok(Op2Parse::Ready(Operand2::Reg(rm)));
    }
    let kind: ShiftKind = parser
        .ident()?
        .parse()
        .map_err(|e: IsaError| parser.err(e.to_string()))?;
    let amount = if parser.eat(&Tok::Hash) {
        let expr = parser.expr()?;
        let value = expr
            .eval(&BTreeMap::new(), parser.line)
            .map_err(|_| parser.err("shift amount must be a literal constant"))?;
        if !(0..=31).contains(&value) {
            return Err(parser.err("shift amount outside 0..=31"));
        }
        ShiftAmount::Imm(value as u8)
    } else {
        ShiftAmount::Reg(parser.reg()?)
    };
    Ok(Op2Parse::Ready(Operand2::ShiftedReg { rm, kind, amount }))
}

fn parse_addr_mode(parser: &mut Parser) -> Result<AddrMode, IsaError> {
    parser.expect(&Tok::LBracket)?;
    let base = parser.reg()?;
    if parser.eat(&Tok::RBracket) {
        // `[rn]`, `[rn], #off`, `[rn], rm` (post-index)
        if parser.eat(&Tok::Comma) {
            let offset = parse_mem_offset(parser)?;
            return Ok(AddrMode {
                base,
                offset,
                index: IndexMode::PostIndex,
            });
        }
        return Ok(AddrMode::base(base));
    }
    parser.expect(&Tok::Comma)?;
    let offset = parse_mem_offset(parser)?;
    parser.expect(&Tok::RBracket)?;
    let index = if parser.eat(&Tok::Bang) {
        IndexMode::PreWriteback
    } else {
        IndexMode::Offset
    };
    Ok(AddrMode {
        base,
        offset,
        index,
    })
}

fn parse_mem_offset(parser: &mut Parser) -> Result<MemOffset, IsaError> {
    if parser.peek() == Some(&Tok::Hash) {
        let expr = parser.imm()?;
        let value = expr
            .eval(&BTreeMap::new(), parser.line)
            .map_err(|_| parser.err("memory offsets must be literal constants"))?;
        if !(-1023..=1023).contains(&value) {
            return Err(parser.err(format!("memory offset {value} outside -1023..=1023")));
        }
        return Ok(MemOffset::Imm(value as i32));
    }
    let sub = parser.eat(&Tok::Minus);
    let rm = parser.reg()?;
    if parser.eat(&Tok::Comma) {
        let kind: ShiftKind = parser
            .ident()?
            .parse()
            .map_err(|e: IsaError| parser.err(e.to_string()))?;
        let expr = parser.imm()?;
        let amount = expr
            .eval(&BTreeMap::new(), parser.line)
            .map_err(|_| parser.err("shift amount must be a literal constant"))?;
        if !(0..=15).contains(&amount) {
            return Err(parser.err("memory offset shift outside 0..=15"));
        }
        Ok(MemOffset::Reg {
            rm,
            kind,
            amount: amount as u8,
            sub,
        })
    } else {
        Ok(MemOffset::Reg {
            rm,
            kind: ShiftKind::Lsl,
            amount: 0,
            sub,
        })
    }
}

/// Parses `{r0, r2-r4, lr}`.
fn parse_reg_list(parser: &mut Parser) -> Result<RegSet, IsaError> {
    parser.expect(&Tok::LBrace)?;
    let mut regs = RegSet::new();
    loop {
        let first = parser.reg()?;
        if parser.eat(&Tok::Minus) {
            let last = parser.reg()?;
            if last.index() < first.index() {
                return Err(parser.err(format!("descending register range {first}-{last}")));
            }
            for i in first.index()..=last.index() {
                regs.insert(Reg::from_index(i as u8).expect("index < 16"));
            }
        } else {
            regs.insert(first);
        }
        if !parser.eat(&Tok::Comma) {
            break;
        }
    }
    parser.expect(&Tok::RBrace)?;
    if regs.is_empty() {
        return Err(parser.err("empty register list"));
    }
    Ok(regs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cond, InsnClass};

    #[test]
    fn assembles_minimal_program() {
        let program = assemble("mov r0, #1\nhalt\n").unwrap();
        assert_eq!(program.len_bytes(), 8);
        assert_eq!(program.insn_at(0).unwrap(), Insn::mov(Reg::R0, 1u32));
        assert_eq!(program.insn_at(4).unwrap(), Insn::halt());
    }

    #[test]
    fn labels_and_branches() {
        let src = "
start:  mov r0, #4
loop:   subs r0, r0, #1
        bne loop
        halt
";
        let program = assemble(src).unwrap();
        assert_eq!(program.symbol("start"), Some(0));
        assert_eq!(program.symbol("loop"), Some(4));
        assert_eq!(program.entry(), 0);
        let branch = program.insn_at(8).unwrap();
        match branch.kind {
            InsnKind::Branch {
                link: false,
                offset,
            } => {
                // From 8, next insn is 12, target 4 → offset -2.
                assert_eq!(offset, -2);
            }
            other => panic!("expected branch, got {other:?}"),
        }
        assert_eq!(branch.cond, Cond::Ne);
    }

    #[test]
    fn forward_branch_reference() {
        let src = "
        b done
        nop
        nop
done:   halt
";
        let program = assemble(src).unwrap();
        let branch = program.insn_at(0).unwrap();
        match branch.kind {
            InsnKind::Branch { offset, .. } => assert_eq!(offset, 2),
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn mnemonic_suffix_disambiguation() {
        // `bls` is b.ls, not bl.s.
        let program = assemble("target: bls target\n").unwrap();
        let insn = program.insn_at(0).unwrap();
        assert_eq!(insn.cond, Cond::Ls);
        assert!(matches!(insn.kind, InsnKind::Branch { link: false, .. }));
        // `bleq` is bl.eq.
        let program = assemble("target: bleq target\n").unwrap();
        let insn = program.insn_at(0).unwrap();
        assert_eq!(insn.cond, Cond::Eq);
        assert!(matches!(insn.kind, InsnKind::Branch { link: true, .. }));
        // `blt` is b.lt.
        let program = assemble("target: blt target\n").unwrap();
        assert_eq!(program.insn_at(0).unwrap().cond, Cond::Lt);
        // `movs` sets flags.
        let program = assemble("movs r0, r1\n").unwrap();
        assert!(program.insn_at(0).unwrap().sets_flags());
        // `subscs`? no — `subcs` + flags is `subscs`... we support `subss`? Not
        // a real form; but `subcs` must parse as sub.cs without flags.
        let program = assemble("subcs r0, r0, #1\n").unwrap();
        let insn = program.insn_at(0).unwrap();
        assert_eq!(insn.cond, Cond::Cs);
        assert!(!insn.sets_flags());
    }

    #[test]
    fn shifted_operands_and_aliases() {
        let program = assemble("add r0, r1, r2, lsl #4\nlsl r3, r4, #2\nror r5, r6, r7\n").unwrap();
        assert_eq!(program.insn_at(0).unwrap().class(), InsnClass::Shift);
        assert_eq!(
            program.insn_at(4).unwrap(),
            Insn::shift_imm(ShiftKind::Lsl, Reg::R3, Reg::R4, 2)
        );
        let by_reg = program.insn_at(8).unwrap();
        match by_reg.kind {
            InsnKind::Dp {
                op2:
                    Operand2::ShiftedReg {
                        amount: ShiftAmount::Reg(rs),
                        ..
                    },
                ..
            } => {
                assert_eq!(rs, Reg::R7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn memory_addressing_forms() {
        let src = "
        ldr  r0, [r1]
        ldr  r0, [r1, #8]
        ldr  r0, [r1, #-8]
        ldrb r0, [r1, r2]
        ldrh r0, [r1, -r2]
        str  r0, [r1, r2, lsl #2]
        str  r0, [r1, #4]!
        str  r0, [r1], #4
";
        let program = assemble(src).unwrap();
        assert_eq!(
            program.insn_at(0).unwrap(),
            Insn::ldr(Reg::R0, AddrMode::base(Reg::R1))
        );
        assert_eq!(
            program.insn_at(4).unwrap(),
            Insn::ldr(Reg::R0, AddrMode::imm_offset(Reg::R1, 8).unwrap())
        );
        assert_eq!(
            program.insn_at(8).unwrap(),
            Insn::ldr(Reg::R0, AddrMode::imm_offset(Reg::R1, -8).unwrap())
        );
        let neg_reg = program.insn_at(16).unwrap();
        match neg_reg.kind {
            InsnKind::Mem {
                addr:
                    AddrMode {
                        offset: MemOffset::Reg { sub, .. },
                        ..
                    },
                ..
            } => {
                assert!(sub);
            }
            other => panic!("unexpected {other:?}"),
        }
        let pre = program.insn_at(24).unwrap();
        match pre.kind {
            InsnKind::Mem { addr, .. } => assert_eq!(addr.index, IndexMode::PreWriteback),
            other => panic!("unexpected {other:?}"),
        }
        let post = program.insn_at(28).unwrap();
        match post.kind {
            InsnKind::Mem { addr, .. } => assert_eq!(addr.index, IndexMode::PostIndex),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn data_directives() {
        let src = "
        .org 0x100
data:   .word 0xdeadbeef, 1
bytes:  .byte 1, 2, 3
        .align 4
after:  .word bytes
        .space 8
end:    halt
";
        let program = assemble(src).unwrap();
        assert_eq!(program.base(), 0x100);
        assert_eq!(program.word_at(0x100), Some(0xdead_beef));
        assert_eq!(program.word_at(0x104), Some(1));
        assert_eq!(program.symbol("bytes"), Some(0x108));
        // 3 bytes then align 4 → `after` at 0x10c.
        assert_eq!(program.symbol("after"), Some(0x10c));
        assert_eq!(program.word_at(0x10c), Some(0x108));
        assert_eq!(program.symbol("end"), Some(0x118));
        assert_eq!(
            program.word_at(0x108).map(|w| w & 0xff_ffff),
            Some(0x030201)
        );
    }

    #[test]
    fn equ_and_predefined_constants() {
        let src = "
        .equ SIZE, 12
        mov r0, #SIZE
        add r1, r0, #SIZE + 4
";
        // Immediates may reference .equ constants and label symbols.
        let program = assemble(src).unwrap();
        assert_eq!(program.insn_at(0).unwrap(), Insn::mov(Reg::R0, 12u32));
        assert_eq!(
            program.insn_at(4).unwrap(),
            Insn::add(Reg::R1, Reg::R0, 16u32)
        );
        // .word can use them too.
        let program = assemble(".equ SIZE, 12\n.word SIZE + 4\n").unwrap();
        assert_eq!(program.word_at(0), Some(16));
        // Predefined constants work the same way.
        let program = Assembler::new()
            .define("N", 3)
            .assemble(".word N\n")
            .unwrap();
        assert_eq!(program.word_at(0), Some(3));
    }

    #[test]
    fn adr_pseudo() {
        let src = "
        .org 0x100
        adr r0, table
        halt
        .org 0x200
table:  .word 0
";
        let program = assemble(src).unwrap();
        assert_eq!(
            program.insn_at(0x100).unwrap(),
            Insn::mov(Reg::R0, 0x200u32)
        );
    }

    #[test]
    fn error_reporting_includes_line() {
        let err = assemble("nop\nfrob r0\n").unwrap_err();
        match err {
            IsaError::Asm { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(assemble("mov r0, #0x12345\n").is_err());
        assert!(assemble("b missing\n").is_err());
        assert!(assemble("dup: nop\ndup: nop\n").is_err());
    }

    #[test]
    fn out_of_range_layout_is_an_error_on_its_line() {
        // (source, line the error must name)
        let cases = [
            (".org 0xfffffff0\n.word 1, 2, 3, 4, 5\n", 2),
            (".org 0xfffffffc\n.word 1\n", 2),
            (".org -4\nnop\n", 1),
            ("nop\n.org 0x100000000\n", 2),
            (".org 0xfffffffe\nnop\n", 2),
            ("mov r0, #9223372036854775807 + 1\n", 1),
            ("nop\n.space -4\n", 2),
        ];
        for (source, want) in cases {
            match assemble(source) {
                Err(IsaError::Asm { line, .. }) => assert_eq!(line, want, "{source:?}"),
                other => panic!("{source:?}: expected an assembler error, got {other:?}"),
            }
        }
    }

    #[test]
    fn comments_are_ignored() {
        let src = "
; full line comment
        nop       ; trailing
        nop       @ also trailing
        nop       // c++ style
";
        let program = assemble(src).unwrap();
        assert_eq!(program.len_bytes(), 12);
    }

    #[test]
    fn multi_register_transfers() {
        let src = "
        push  {r0, r4-r6, lr}
        pop   {r0, r4-r6, pc}
        ldmia r1!, {r2, r3}
        stmdb r1, {r2, r3}
        umull r0, r1, r2, r3
        smullne r4, r5, r6, r7
";
        let program = assemble(src).unwrap();
        let expected: RegSet = [Reg::R0, Reg::R4, Reg::R5, Reg::R6, Reg::LR]
            .into_iter()
            .collect();
        assert_eq!(program.insn_at(0).unwrap(), Insn::push(expected));
        let pop = program.insn_at(4).unwrap();
        match pop.kind {
            InsnKind::MemMulti {
                dir: MemDir::Load,
                base,
                writeback,
                regs,
                ..
            } => {
                assert_eq!(base, Reg::SP);
                assert!(writeback);
                assert!(regs.contains(Reg::PC));
            }
            other => panic!("unexpected {other:?}"),
        }
        let ldm = program.insn_at(8).unwrap();
        match ldm.kind {
            InsnKind::MemMulti {
                writeback, mode, ..
            } => {
                assert!(writeback);
                assert_eq!(mode, MemMultiMode::Ia);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            program.insn_at(16).unwrap(),
            Insn::umull(Reg::R0, Reg::R1, Reg::R2, Reg::R3)
        );
        assert_eq!(program.insn_at(20).unwrap().cond, Cond::Ne);
    }

    #[test]
    fn reg_list_errors() {
        assert!(assemble("push {}\n").is_err());
        assert!(assemble("push {r4-r1}\n").is_err());
        assert!(assemble("push r0\n").is_err());
    }

    #[test]
    fn conditional_memory_and_halt() {
        let program = assemble("ldrbeq r0, [r1]\nhalteq\n").unwrap();
        let insn = program.insn_at(0).unwrap();
        assert_eq!(insn.cond, Cond::Eq);
        match insn.kind {
            InsnKind::Mem { size, .. } => assert_eq!(size, MemSize::Byte),
            other => panic!("unexpected {other:?}"),
        }
    }
}
