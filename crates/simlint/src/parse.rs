//! A tolerant Pratt parser producing the lightweight AST behind U1/P1.
//!
//! This is not a Rust front-end: it parses *already-compiling* source
//! (everything it sees has passed rustc), so it never needs to reject
//! anything — when a construct is outside its grammar (macro bodies,
//! exotic patterns) it degrades to [`Expr::Opaque`] and moves on. What
//! it does recover, precisely, is the shape U1 and P1 need:
//!
//! - every function item with its name, `impl`-qualified path, parameter
//!   names, and body statements (nested functions become their own
//!   entries);
//! - expressions as a real tree — binary operators with precedence,
//!   calls, method calls, field accesses, struct literals, index
//!   expressions, casts — each carrying the source line;
//! - `let` bindings, assignments, and `return`s, so dimension checks can
//!   pair names against initializers.
//!
//! Known, deliberate blind spots (documented in DESIGN.md §16): macro
//! invocation arguments are skipped wholesale, match-arm *guards* are
//! skipped with the pattern, and struct literals are only recognized for
//! `UpperCamel` type paths. Each is a soundness-for-noise trade: clippy
//! and the line-level rules still see every token on every line.

use crate::lexer::{Tok, Token};

/// Recursion guard: expressions nested deeper than this degrade to
/// [`Expr::Opaque`] instead of risking the stack.
const MAX_DEPTH: u32 = 120;

/// One parsed source file: its functions and top-level constants.
#[derive(Clone, Debug, Default)]
pub struct FileAst {
    /// Every `fn` item, including nested and `impl`/`trait` methods.
    pub fns: Vec<FnAst>,
    /// `const`/`static` initializers, represented as `let`-like
    /// statements so U1 checks them with the same code path.
    pub consts: Vec<Stmt>,
}

/// One function item.
#[derive(Clone, Debug)]
pub struct FnAst {
    /// Bare name (`ingest`).
    pub name: String,
    /// Qualified display name (`Session::ingest` inside an impl block).
    pub qual: String,
    /// 1-based line of the `fn` name.
    pub line: usize,
    /// Last line of the body (the name's line for bodiless signatures).
    pub end_line: usize,
    /// Parameters, receiver excluded.
    pub params: Vec<Param>,
    /// True when the parameter list starts with a `self` receiver.
    pub has_receiver: bool,
    /// Body statements (empty for trait-method signatures).
    pub body: Vec<Stmt>,
    /// Whether a body was present at all.
    pub has_body: bool,
    /// Set after parsing when the definition sits in a `#[cfg(test)]`
    /// region: such functions are invisible to U1 and P1.
    pub in_test: bool,
}

/// One function parameter.
#[derive(Clone, Debug)]
pub struct Param {
    /// Binding name when the pattern is a simple identifier.
    pub name: Option<String>,
    /// 1-based line the parameter starts on.
    pub line: usize,
}

/// A statement, flattened to what the checkers need.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `let name = init;` (name is `None` for destructuring patterns).
    Let {
        /// Simple binding name, when the pattern is one identifier.
        name: Option<String>,
        /// Line of the `let`.
        line: usize,
        /// Initializer, when present.
        init: Option<Expr>,
    },
    /// An expression statement.
    Expr {
        /// The expression.
        expr: Expr,
        /// Whether a `;` followed (a bare tail expression has none).
        has_semi: bool,
    },
    /// `return expr;`
    Return {
        /// The returned expression, when present.
        expr: Option<Expr>,
        /// Line of the `return`.
        line: usize,
    },
}

/// An expression node. Lines are carried where findings anchor.
#[derive(Clone, Debug)]
pub enum Expr {
    /// Numeric literal.
    Lit,
    /// String literal (contents blanked before parsing).
    StrLit,
    /// Path such as `x`, `self`, `a::b::C`.
    Path {
        /// `::`-separated segments.
        segs: Vec<String>,
        /// Source line.
        line: usize,
    },
    /// Field access `base.name` (tuple indices appear as numeric names).
    Field {
        /// Receiver.
        base: Box<Expr>,
        /// Field name.
        name: String,
        /// Source line.
        line: usize,
    },
    /// Method call `base.name(args)`.
    MethodCall {
        /// Receiver.
        base: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Source line.
        line: usize,
    },
    /// Plain or path call `name(args)` / `a::b::name(args)`.
    Call {
        /// Callee path segments.
        segs: Vec<String>,
        /// Arguments.
        args: Vec<Expr>,
        /// Source line.
        line: usize,
    },
    /// Call of a non-path callee, e.g. `(closure)(x)`.
    CallExpr {
        /// Callee expression.
        base: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Prefix operator.
    Unary {
        /// One of `-`, `!`, `*`, `&`.
        op: &'static str,
        /// Operand.
        inner: Box<Expr>,
    },
    /// Infix operator (non-assigning).
    Binary {
        /// Operator spelling.
        op: &'static str,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source line.
        line: usize,
    },
    /// Assignment or compound assignment.
    Assign {
        /// One of `=`, `+=`, `-=`, `*=`, `/=`, `%=`, …
        op: &'static str,
        /// Assignee.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
        /// Source line.
        line: usize,
    },
    /// Index expression `base[index]`.
    Index {
        /// Indexed value.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// `inner as Type` (the type is skipped; dimension passes through).
    Cast {
        /// Cast operand.
        inner: Box<Expr>,
    },
    /// Struct literal `Name { field: expr, .. }`.
    StructLit {
        /// Type name (last path segment).
        name: String,
        /// Named fields: (field, value, line).
        fields: Vec<(String, Expr, usize)>,
        /// Functional-update base (`..base`), when present.
        base: Option<Box<Expr>>,
        /// Source line.
        line: usize,
    },
    /// Array literal `[a, b]` or `[v; n]`.
    Array(Vec<Expr>),
    /// Tuple literal `(a, b)`.
    Tuple(Vec<Expr>),
    /// Closure: parameters are skipped, the body is kept.
    Closure {
        /// Closure body.
        body: Box<Expr>,
    },
    /// Block-like region (plain block, `if`, `match`, `while`, `for`,
    /// `loop`) flattened into its statements: conditions, scrutinees and
    /// bodies are all walked, but the region's own value is opaque.
    Scope(Vec<Stmt>),
    /// Range expression.
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
    },
    /// Anything outside the grammar (macro calls, unparsed corners).
    Opaque,
}

/// Parses one file's token stream.
pub fn parse_file(tokens: &[Token]) -> FileAst {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        depth: 0,
        out: FileAst::default(),
    };
    p.parse_items("");
    p.out
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    depth: u32,
    out: FileAst,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek_at(&self, n: usize) -> Option<&Tok> {
        self.toks.get(self.pos + n).map(|t| &t.tok)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|t| t.line)
            .unwrap_or(1)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Some(Tok::Punct(q)) if *q == p)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn at_ident(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if self.at_ident(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn take_ident(&mut self) -> Option<String> {
        if let Some(Tok::Ident(s)) = self.peek() {
            let s = s.clone();
            self.bump();
            Some(s)
        } else {
            None
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Skips a balanced `(…)`, `[…]` or `{…}` group, opener included.
    fn skip_group(&mut self) {
        let (open, close) = match self.peek() {
            Some(Tok::Punct("(")) => ("(", ")"),
            Some(Tok::Punct("[")) => ("[", "]"),
            Some(Tok::Punct("{")) => ("{", "}"),
            _ => return,
        };
        let mut depth = 0usize;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Punct(p) if *p == open => depth += 1,
                Tok::Punct(p) if *p == close => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Skips `#[…]` / `#![…]` attributes at the cursor.
    fn skip_attrs(&mut self) {
        while self.at_punct("#") {
            self.bump();
            self.eat_punct("!");
            if self.at_punct("[") {
                self.skip_group();
            }
        }
    }

    /// Skips a balanced generic-argument group starting at `<`.
    fn skip_angles(&mut self) {
        let mut angle = 0i32;
        let mut group = 0i32;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Punct("<") | Tok::Punct("<<") => {
                    angle += if matches!(tok, Tok::Punct("<<")) {
                        2
                    } else {
                        1
                    };
                }
                Tok::Punct(">") => angle -= 1,
                Tok::Punct(">>") => angle -= 2,
                Tok::Punct(">=") => angle -= 1,
                Tok::Punct("(") | Tok::Punct("[") | Tok::Punct("{") => group += 1,
                Tok::Punct(")") | Tok::Punct("]") | Tok::Punct("}") => {
                    if group == 0 {
                        return; // Unbalanced: bail without consuming.
                    }
                    group -= 1;
                }
                Tok::Punct(";") if group == 0 => return,
                _ => {}
            }
            self.bump();
            if angle <= 0 && group == 0 {
                return;
            }
        }
    }

    /// Skips type tokens until one of `stops` appears at depth zero.
    /// Understands nesting of `()`, `[]`, `<>` and leaves the stop token
    /// unconsumed. Also stops (without consuming) at an unbalanced
    /// closer so a caller mid-group is never derailed.
    fn skip_type_until(&mut self, stops: &[&str]) {
        let mut angle = 0i32;
        let mut group = 0i32;
        while let Some(tok) = self.peek() {
            if let Tok::Punct(p) = tok {
                if angle <= 0 && group == 0 && stops.contains(p) {
                    return;
                }
                match *p {
                    "<" => angle += 1,
                    "<<" => angle += 2,
                    ">" if angle > 0 => angle -= 1,
                    ">>" if angle > 0 => angle -= 2,
                    "(" | "[" => group += 1,
                    ")" | "]" | "}" => {
                        if group == 0 {
                            return;
                        }
                        group -= 1;
                    }
                    "{" if angle <= 0 && group == 0 => return,
                    "{" => group += 1,
                    ";" if group == 0 => return,
                    _ => {}
                }
            } else if let Tok::Ident(w) = tok {
                if angle <= 0 && group == 0 && stops.contains(&w.as_str()) {
                    return;
                }
            }
            self.bump();
        }
    }

    // -- items ------------------------------------------------------------

    /// Parses items until an unmatched `}` or end of input.
    fn parse_items(&mut self, qual: &str) {
        while !self.at_end() {
            if self.at_punct("}") {
                return;
            }
            self.skip_attrs();
            // Visibility and qualifiers.
            if self.eat_ident("pub") {
                if self.at_punct("(") {
                    self.skip_group();
                }
                continue;
            }
            if self.at_ident("const") {
                // `const fn` is a qualifier; `const NAME: T = …` an item.
                if matches!(self.peek_at(1), Some(Tok::Ident(w)) if w == "fn") {
                    self.bump();
                    continue;
                }
                self.bump();
                self.parse_const_item();
                continue;
            }
            if self.at_ident("static") {
                self.bump();
                self.eat_ident("mut");
                self.parse_const_item();
                continue;
            }
            match self.peek() {
                Some(Tok::Ident(w)) => match w.as_str() {
                    "fn" => {
                        self.bump();
                        self.parse_fn(qual);
                    }
                    "impl" => {
                        self.bump();
                        self.parse_impl();
                    }
                    "mod" => {
                        self.bump();
                        self.take_ident();
                        if self.at_punct("{") {
                            self.bump();
                            self.parse_items(qual);
                            self.eat_punct("}");
                        } else {
                            self.eat_punct(";");
                        }
                    }
                    "trait" => {
                        self.bump();
                        let name = self.take_ident().unwrap_or_default();
                        self.skip_type_until(&["{"]);
                        if self.at_punct("{") {
                            self.bump();
                            self.parse_items(&name);
                            self.eat_punct("}");
                        }
                    }
                    "struct" | "enum" | "union" => {
                        self.bump();
                        self.take_ident();
                        self.skip_type_until(&["{", ";", "("]);
                        if self.at_punct("(") {
                            self.skip_group();
                            self.skip_type_until(&[";"]);
                        }
                        if self.at_punct("{") {
                            self.skip_group();
                        } else {
                            self.eat_punct(";");
                        }
                    }
                    "use" | "extern" | "type" => {
                        self.bump();
                        while !self.at_end() && !self.at_punct(";") {
                            if self.at_punct("{") {
                                self.skip_group();
                            } else {
                                self.bump();
                            }
                        }
                        self.eat_punct(";");
                    }
                    "macro_rules" => {
                        self.bump();
                        self.eat_punct("!");
                        self.take_ident();
                        self.skip_group();
                    }
                    _ => self.bump(),
                },
                _ => self.bump(),
            }
        }
    }

    /// `const NAME: Type = expr;` with the cursor just past the keyword.
    fn parse_const_item(&mut self) {
        let line = self.line();
        let name = self.take_ident();
        self.skip_type_until(&["=", ";"]);
        let init = if self.eat_punct("=") {
            Some(self.parse_expr(0, false))
        } else {
            None
        };
        self.eat_punct(";");
        self.out.consts.push(Stmt::Let { name, line, init });
    }

    /// `impl …` with the cursor just past the keyword: extracts the
    /// implemented type's name (the segment after `for` when present)
    /// and parses the contained items under that qualifier.
    fn parse_impl(&mut self) {
        if self.at_punct("<") {
            self.skip_angles();
        }
        let mut target = String::new();
        let mut angle = 0i32;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Punct("{") | Tok::Punct(";") if angle <= 0 => break,
                Tok::Ident(w) if w == "where" && angle <= 0 => break,
                Tok::Ident(w) if w == "for" && angle <= 0 => {
                    target.clear();
                    self.bump();
                }
                Tok::Ident(w) => {
                    if angle <= 0 {
                        target = w.clone();
                    }
                    self.bump();
                }
                Tok::Punct("<") => {
                    angle += 1;
                    self.bump();
                }
                Tok::Punct(">") => {
                    angle -= 1;
                    self.bump();
                }
                Tok::Punct(">>") => {
                    angle -= 2;
                    self.bump();
                }
                _ => self.bump(),
            }
        }
        if self.at_ident("where") {
            self.skip_type_until(&["{"]);
        }
        if self.at_punct("{") {
            self.bump();
            self.parse_items(&target);
            self.eat_punct("}");
        } else {
            self.eat_punct(";");
        }
    }

    /// `fn …` with the cursor just past the keyword.
    fn parse_fn(&mut self, qual: &str) {
        let line = self.line();
        let name = match self.take_ident() {
            Some(n) => n,
            None => return,
        };
        if self.at_punct("<") {
            self.skip_angles();
        }
        let mut params = Vec::new();
        let mut has_receiver = false;
        if self.at_punct("(") {
            self.bump();
            loop {
                self.skip_attrs();
                if self.at_punct(")") || self.at_end() {
                    break;
                }
                let p_line = self.line();
                // Receiver forms: `self`, `&self`, `&mut self`,
                // `&'a mut self`, `mut self`, `self: Type`.
                let mut look = 0usize;
                let mut saw_self = false;
                while look < 4 {
                    match self.peek_at(look) {
                        Some(Tok::Punct("&")) | Some(Tok::Lifetime(_)) => look += 1,
                        Some(Tok::Ident(w)) if w == "mut" => look += 1,
                        Some(Tok::Ident(w)) if w == "self" => {
                            saw_self = true;
                            break;
                        }
                        _ => break,
                    }
                }
                if saw_self && params.is_empty() && !has_receiver {
                    has_receiver = true;
                } else {
                    // Simple `name: Type` (optionally `mut name`).
                    let mut name_tok = None;
                    let mut ahead = 0usize;
                    if matches!(self.peek(), Some(Tok::Ident(w)) if w == "mut") {
                        ahead = 1;
                    }
                    if let (Some(Tok::Ident(n)), Some(Tok::Punct(":"))) =
                        (self.peek_at(ahead), self.peek_at(ahead + 1))
                    {
                        name_tok = Some(n.clone());
                    }
                    params.push(Param {
                        name: name_tok,
                        line: p_line,
                    });
                }
                // Skip to the `,` or `)` closing this parameter.
                self.skip_type_until(&[","]);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.eat_punct(")");
        }
        if self.eat_punct("->") {
            self.skip_type_until(&["{", ";", "where"]);
        }
        if self.at_ident("where") {
            self.skip_type_until(&["{", ";"]);
        }
        let (body, has_body) = if self.at_punct("{") {
            self.bump();
            let body = self.parse_stmts();
            self.eat_punct("}");
            (body, true)
        } else {
            self.eat_punct(";");
            (Vec::new(), false)
        };
        let end_line = self
            .toks
            .get(self.pos.saturating_sub(1))
            .map(|t| t.line)
            .unwrap_or(line);
        let qual_name = if qual.is_empty() {
            name.clone()
        } else {
            format!("{qual}::{name}")
        };
        self.out.fns.push(FnAst {
            name,
            qual: qual_name,
            line,
            end_line,
            params,
            has_receiver,
            body,
            has_body,
            in_test: false,
        });
    }

    // -- statements -------------------------------------------------------

    /// Parses statements until an unmatched `}` (left unconsumed).
    fn parse_stmts(&mut self) -> Vec<Stmt> {
        let mut out = Vec::new();
        while !self.at_end() {
            if self.at_punct("}") {
                return out;
            }
            if self.eat_punct(";") {
                continue;
            }
            self.skip_attrs();
            let before = self.pos;
            match self.peek() {
                Some(Tok::Ident(w)) => match w.as_str() {
                    "let" => out.push(self.parse_let()),
                    "if" | "while" | "for" | "loop" | "match" | "unsafe" => {
                        let expr = self.parse_blockish();
                        let has_semi = self.eat_punct(";");
                        out.push(Stmt::Expr { expr, has_semi });
                    }
                    "return" => {
                        let line = self.line();
                        self.bump();
                        let expr = if self.at_punct(";") || self.at_punct("}") {
                            None
                        } else {
                            Some(self.parse_expr(0, false))
                        };
                        self.eat_punct(";");
                        out.push(Stmt::Return { expr, line });
                    }
                    "break" | "continue" => {
                        self.bump();
                        if let Some(Tok::Lifetime(_)) = self.peek() {
                            self.bump();
                        }
                        if !(self.at_punct(";") || self.at_punct("}")) {
                            let expr = self.parse_expr(0, false);
                            out.push(Stmt::Expr {
                                expr,
                                has_semi: false,
                            });
                        }
                        self.eat_punct(";");
                    }
                    "fn" => {
                        self.bump();
                        self.parse_fn("");
                    }
                    "pub" => {
                        self.bump();
                        if self.at_punct("(") {
                            self.skip_group();
                        }
                    }
                    "use" | "type" => {
                        self.bump();
                        while !self.at_end() && !self.at_punct(";") {
                            if self.at_punct("{") {
                                self.skip_group();
                            } else {
                                self.bump();
                            }
                        }
                        self.eat_punct(";");
                    }
                    "const" | "static" => {
                        if matches!(self.peek_at(1), Some(Tok::Ident(w)) if w == "fn") {
                            self.bump();
                        } else {
                            self.bump();
                            self.eat_ident("mut");
                            self.parse_const_item();
                        }
                    }
                    "struct" | "enum" | "union" | "impl" | "mod" | "trait" | "macro_rules" => {
                        // Items inside bodies: reuse the item parser for
                        // just this one item by dispatching on it.
                        self.parse_items_one();
                    }
                    _ => {
                        let expr = self.parse_expr(0, false);
                        let has_semi = self.eat_punct(";");
                        out.push(Stmt::Expr { expr, has_semi });
                    }
                },
                Some(Tok::Punct("{")) => {
                    self.bump();
                    let inner = self.parse_stmts();
                    self.eat_punct("}");
                    let has_semi = self.eat_punct(";");
                    out.push(Stmt::Expr {
                        expr: Expr::Scope(inner),
                        has_semi,
                    });
                }
                Some(_) => {
                    let expr = self.parse_expr(0, false);
                    let has_semi = self.eat_punct(";");
                    out.push(Stmt::Expr { expr, has_semi });
                }
                None => break,
            }
            if self.pos == before {
                self.bump(); // Guaranteed progress on anything unparseable.
            }
        }
        out
    }

    /// Parses exactly one item inside a function body.
    fn parse_items_one(&mut self) {
        match self.peek() {
            Some(Tok::Ident(w)) => match w.as_str() {
                "impl" => {
                    self.bump();
                    self.parse_impl();
                }
                "mod" => {
                    self.bump();
                    self.take_ident();
                    if self.at_punct("{") {
                        self.bump();
                        self.parse_items("");
                        self.eat_punct("}");
                    } else {
                        self.eat_punct(";");
                    }
                }
                "trait" => {
                    self.bump();
                    let name = self.take_ident().unwrap_or_default();
                    self.skip_type_until(&["{"]);
                    if self.at_punct("{") {
                        self.bump();
                        self.parse_items(&name);
                        self.eat_punct("}");
                    }
                }
                "struct" | "enum" | "union" => {
                    self.bump();
                    self.take_ident();
                    self.skip_type_until(&["{", ";", "("]);
                    if self.at_punct("(") {
                        self.skip_group();
                        self.skip_type_until(&[";"]);
                    }
                    if self.at_punct("{") {
                        self.skip_group();
                    } else {
                        self.eat_punct(";");
                    }
                }
                "macro_rules" => {
                    self.bump();
                    self.eat_punct("!");
                    self.take_ident();
                    self.skip_group();
                }
                _ => self.bump(),
            },
            _ => self.bump(),
        }
    }

    /// `let …` with the cursor on the keyword.
    fn parse_let(&mut self) -> Stmt {
        let line = self.line();
        self.bump(); // let
                     // Find the pattern's extent: up to `=` or `;` at depth zero.
        let start = self.pos;
        self.skip_type_until(&["="]);
        // Extract a simple binding name from the pattern slice.
        let slice = &self.toks[start..self.pos];
        let mut name = None;
        let mut i = 0usize;
        while i < slice.len() {
            match &slice[i].tok {
                Tok::Ident(w) if w == "mut" || w == "ref" => i += 1,
                Tok::Ident(w) => {
                    let simple = matches!(
                        slice.get(i + 1).map(|t| &t.tok),
                        None | Some(Tok::Punct(":"))
                    );
                    if simple {
                        name = Some(w.clone());
                    }
                    break;
                }
                _ => break,
            }
        }
        let init = if self.eat_punct("=") {
            Some(self.parse_expr(0, false))
        } else {
            None
        };
        // `let … else { … }` divergence block.
        if self.at_ident("else") {
            self.bump();
            if self.at_punct("{") {
                self.skip_group();
            }
        }
        self.eat_punct(";");
        Stmt::Let { name, line, init }
    }

    /// Parses a block-like construct (`{`, `if`, `while`, `for`, `loop`,
    /// `match`, `unsafe`) into an [`Expr::Scope`] that exposes every
    /// condition, scrutinee, and body statement to the checkers.
    fn parse_blockish(&mut self) -> Expr {
        if self.depth >= MAX_DEPTH {
            self.skip_group();
            return Expr::Opaque;
        }
        self.depth += 1;
        let result = self.parse_blockish_inner();
        self.depth -= 1;
        result
    }

    fn parse_blockish_inner(&mut self) -> Expr {
        let mut stmts = Vec::new();
        match self.peek() {
            Some(Tok::Punct("{")) => {
                self.bump();
                stmts = self.parse_stmts();
                self.eat_punct("}");
            }
            Some(Tok::Ident(w)) => match w.as_str() {
                "if" | "while" => {
                    self.bump();
                    if self.eat_ident("let") {
                        self.skip_type_until(&["="]);
                        self.eat_punct("=");
                    }
                    let cond = self.parse_expr(0, true);
                    stmts.push(Stmt::Expr {
                        expr: cond,
                        has_semi: true,
                    });
                    if self.at_punct("{") {
                        self.bump();
                        let body = self.parse_stmts();
                        self.eat_punct("}");
                        stmts.push(Stmt::Expr {
                            expr: Expr::Scope(body),
                            has_semi: true,
                        });
                    }
                    while self.at_ident("else") {
                        self.bump();
                        if self.at_ident("if") {
                            let chained = self.parse_blockish();
                            stmts.push(Stmt::Expr {
                                expr: chained,
                                has_semi: true,
                            });
                            break;
                        }
                        if self.at_punct("{") {
                            self.bump();
                            let body = self.parse_stmts();
                            self.eat_punct("}");
                            stmts.push(Stmt::Expr {
                                expr: Expr::Scope(body),
                                has_semi: true,
                            });
                        }
                    }
                }
                "for" => {
                    self.bump();
                    self.skip_type_until(&["in"]);
                    self.eat_ident("in");
                    let iter = self.parse_expr(0, true);
                    stmts.push(Stmt::Expr {
                        expr: iter,
                        has_semi: true,
                    });
                    if self.at_punct("{") {
                        self.bump();
                        let body = self.parse_stmts();
                        self.eat_punct("}");
                        stmts.push(Stmt::Expr {
                            expr: Expr::Scope(body),
                            has_semi: true,
                        });
                    }
                }
                "loop" | "unsafe" => {
                    self.bump();
                    if self.at_punct("{") {
                        self.bump();
                        let body = self.parse_stmts();
                        self.eat_punct("}");
                        stmts.push(Stmt::Expr {
                            expr: Expr::Scope(body),
                            has_semi: true,
                        });
                    }
                }
                "match" => {
                    self.bump();
                    let scrutinee = self.parse_expr(0, true);
                    stmts.push(Stmt::Expr {
                        expr: scrutinee,
                        has_semi: true,
                    });
                    if self.at_punct("{") {
                        self.bump();
                        loop {
                            self.skip_attrs();
                            if self.at_punct("}") || self.at_end() {
                                break;
                            }
                            // Pattern (and any guard) up to `=>`.
                            let before = self.pos;
                            self.skip_pattern_until_arrow();
                            if !self.eat_punct("=>") {
                                if self.pos == before {
                                    self.bump();
                                }
                                continue;
                            }
                            let arm = if self.at_punct("{") {
                                let e = self.parse_blockish();
                                self.eat_punct(",");
                                e
                            } else {
                                let e = self.parse_expr(0, false);
                                self.eat_punct(",");
                                e
                            };
                            stmts.push(Stmt::Expr {
                                expr: arm,
                                has_semi: true,
                            });
                        }
                        self.eat_punct("}");
                    }
                }
                _ => {
                    self.bump();
                }
            },
            _ => {
                self.bump();
            }
        }
        Expr::Scope(stmts)
    }

    /// Skips a match-arm pattern (and optional guard) up to its `=>`.
    fn skip_pattern_until_arrow(&mut self) {
        let mut group = 0i32;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Punct("=>") if group == 0 => return,
                Tok::Punct("(") | Tok::Punct("[") | Tok::Punct("{") => {
                    group += 1;
                    self.bump();
                }
                Tok::Punct(")") | Tok::Punct("]") | Tok::Punct("}") => {
                    if group == 0 {
                        return;
                    }
                    group -= 1;
                    self.bump();
                }
                _ => self.bump(),
            }
        }
    }

    // -- expressions ------------------------------------------------------

    /// Pratt parser: parses an expression with operators of binding
    /// power at least `min_bp`. `no_struct` suppresses struct-literal
    /// parsing (condition/scrutinee position, as in real Rust).
    fn parse_expr(&mut self, min_bp: u8, no_struct: bool) -> Expr {
        if self.depth >= MAX_DEPTH {
            self.bump();
            return Expr::Opaque;
        }
        self.depth += 1;
        let e = self.parse_expr_inner(min_bp, no_struct);
        self.depth -= 1;
        e
    }

    fn parse_expr_inner(&mut self, min_bp: u8, no_struct: bool) -> Expr {
        let mut lhs = self.parse_prefix(no_struct);
        loop {
            let (op, lbp, rbp, kind) = match self.peek() {
                Some(Tok::Ident(w)) if w == "as" => {
                    self.bump();
                    self.skip_cast_type();
                    lhs = Expr::Cast {
                        inner: Box::new(lhs),
                    };
                    continue;
                }
                Some(Tok::Punct(p)) => match binary_power(p) {
                    Some(t) => t,
                    None => break,
                },
                _ => break,
            };
            if lbp < min_bp {
                break;
            }
            let line = self.line();
            self.bump();
            match kind {
                BinKind::Range => {
                    // The upper bound is optional (`a..`).
                    let hi = if self.expr_can_start(no_struct) {
                        Some(Box::new(self.parse_expr(rbp, no_struct)))
                    } else {
                        None
                    };
                    lhs = Expr::Range {
                        lo: Some(Box::new(lhs)),
                        hi,
                    };
                }
                BinKind::Assign => {
                    let rhs = self.parse_expr(rbp, no_struct);
                    lhs = Expr::Assign {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                        line,
                    };
                }
                BinKind::Plain => {
                    let rhs = self.parse_expr(rbp, no_struct);
                    lhs = Expr::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                        line,
                    };
                }
            }
        }
        lhs
    }

    /// Can the current token start an expression? (Used for open ranges.)
    fn expr_can_start(&self, no_struct: bool) -> bool {
        match self.peek() {
            Some(Tok::Ident(w)) => {
                !(matches!(w.as_str(), "in" | "else" | "where") || (no_struct && w == "{"))
            }
            Some(Tok::Num(_)) | Some(Tok::Str) | Some(Tok::Char) => true,
            Some(Tok::Punct(p)) => matches!(*p, "(" | "[" | "-" | "!" | "*" | "&" | "|" | "||"),
            _ => false,
        }
    }

    fn parse_prefix(&mut self, no_struct: bool) -> Expr {
        self.skip_attrs();
        let base = match self.peek() {
            Some(Tok::Num(_)) => {
                self.bump();
                Expr::Lit
            }
            Some(Tok::Str) => {
                self.bump();
                Expr::StrLit
            }
            Some(Tok::Char) => {
                self.bump();
                Expr::Opaque
            }
            Some(Tok::Lifetime(_)) => {
                // Labeled block/loop: `'a: loop { … }`.
                self.bump();
                self.eat_punct(":");
                if self.at_punct("{") || self.at_ident("loop") || self.at_ident("while") {
                    self.parse_blockish()
                } else {
                    Expr::Opaque
                }
            }
            Some(Tok::Punct(p)) => match *p {
                "-" | "!" | "*" => {
                    let op: &'static str = match *p {
                        "-" => "-",
                        "!" => "!",
                        _ => "*",
                    };
                    self.bump();
                    let inner = self.parse_expr(UNARY_BP, no_struct);
                    Expr::Unary {
                        op,
                        inner: Box::new(inner),
                    }
                }
                "&" | "&&" => {
                    let double = *p == "&&";
                    self.bump();
                    self.eat_ident("mut");
                    let inner = self.parse_expr(UNARY_BP, no_struct);
                    let once = Expr::Unary {
                        op: "&",
                        inner: Box::new(inner),
                    };
                    if double {
                        Expr::Unary {
                            op: "&",
                            inner: Box::new(once),
                        }
                    } else {
                        once
                    }
                }
                ".." | "..=" => {
                    self.bump();
                    let hi = if self.expr_can_start(no_struct) {
                        Some(Box::new(self.parse_expr(RANGE_RBP, no_struct)))
                    } else {
                        None
                    };
                    Expr::Range { lo: None, hi }
                }
                "|" | "||" => self.parse_closure(),
                "(" => {
                    self.bump();
                    let mut items = Vec::new();
                    let mut trailing = false;
                    while !self.at_punct(")") && !self.at_end() {
                        let before = self.pos;
                        items.push(self.parse_expr(0, false));
                        trailing = self.eat_punct(",");
                        if self.pos == before {
                            self.bump();
                        }
                    }
                    self.eat_punct(")");
                    if items.len() == 1 && !trailing {
                        items.pop().unwrap_or(Expr::Opaque)
                    } else {
                        Expr::Tuple(items)
                    }
                }
                "[" => {
                    self.bump();
                    let mut items = Vec::new();
                    while !self.at_punct("]") && !self.at_end() {
                        let before = self.pos;
                        items.push(self.parse_expr(0, false));
                        if !self.eat_punct(",") && !self.eat_punct(";") && self.pos == before {
                            self.bump();
                        }
                    }
                    self.eat_punct("]");
                    Expr::Array(items)
                }
                "{" => self.parse_blockish(),
                _ => {
                    // Terminators yield Opaque without consuming; the
                    // callers' progress guards handle the rest.
                    if !matches!(*p, ")" | "]" | "}" | "," | ";" | "=>") {
                        self.bump();
                    }
                    Expr::Opaque
                }
            },
            Some(Tok::Ident(w)) => match w.as_str() {
                "if" | "while" | "for" | "loop" | "match" | "unsafe" => self.parse_blockish(),
                "move" => {
                    self.bump();
                    self.parse_closure()
                }
                "return" | "break" | "continue" => {
                    self.bump();
                    if self.expr_can_start(no_struct) && !self.at_punct(";") && !self.at_punct("}")
                    {
                        let _ = self.parse_expr(0, no_struct);
                    }
                    Expr::Opaque
                }
                "let" => {
                    // `let`-chains in conditions: `x && let Some(y) = z`.
                    self.bump();
                    self.skip_type_until(&["="]);
                    self.eat_punct("=");
                    self.parse_expr(COMPARE_RBP, no_struct)
                }
                _ => self.parse_path_expr(no_struct),
            },
            None => Expr::Opaque,
        };
        self.parse_postfix(base)
    }

    fn parse_closure(&mut self) -> Expr {
        if self.eat_punct("||") {
            // No parameters.
        } else if self.eat_punct("|") {
            let mut group = 0i32;
            while let Some(tok) = self.peek() {
                match tok {
                    Tok::Punct("|") if group == 0 => {
                        self.bump();
                        break;
                    }
                    Tok::Punct("(") | Tok::Punct("[") | Tok::Punct("{") => {
                        group += 1;
                        self.bump();
                    }
                    Tok::Punct(")") | Tok::Punct("]") | Tok::Punct("}") => {
                        if group == 0 {
                            break;
                        }
                        group -= 1;
                        self.bump();
                    }
                    _ => self.bump(),
                }
            }
        } else {
            return Expr::Opaque;
        }
        if self.eat_punct("->") {
            self.skip_type_until(&["{"]);
        }
        let body = if self.at_punct("{") {
            self.parse_blockish()
        } else {
            self.parse_expr(CLOSURE_BODY_BP, false)
        };
        Expr::Closure {
            body: Box::new(body),
        }
    }

    /// Path expression: `a`, `a::b`, turbofish, call, struct literal,
    /// or macro invocation.
    fn parse_path_expr(&mut self, no_struct: bool) -> Expr {
        let line = self.line();
        let mut segs = Vec::new();
        if let Some(first) = self.take_ident() {
            segs.push(first);
        } else {
            return Expr::Opaque;
        }
        loop {
            if self.at_punct("::") {
                match self.peek_at(1) {
                    Some(Tok::Ident(_)) => {
                        self.bump();
                        if let Some(seg) = self.take_ident() {
                            segs.push(seg);
                        }
                    }
                    Some(Tok::Punct("<")) => {
                        self.bump();
                        self.skip_angles();
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
        // Macro invocation: skip the delimited body entirely.
        if self.at_punct("!") {
            if let Some(Tok::Punct(d)) = self.peek_at(1) {
                if matches!(*d, "(" | "[" | "{") {
                    self.bump();
                    self.skip_group();
                    return Expr::Opaque;
                }
            }
        }
        if self.at_punct("(") {
            let args = self.parse_args();
            return Expr::Call { segs, args, line };
        }
        if self.at_punct("{") && !no_struct {
            let type_like = segs
                .last()
                .and_then(|s| s.chars().next())
                .is_some_and(|c| c.is_uppercase());
            if type_like {
                return self.parse_struct_lit(segs, line);
            }
        }
        Expr::Path { segs, line }
    }

    fn parse_struct_lit(&mut self, segs: Vec<String>, line: usize) -> Expr {
        self.bump(); // {
        let name = segs.last().cloned().unwrap_or_default();
        let mut fields = Vec::new();
        let mut base = None;
        while !self.at_punct("}") && !self.at_end() {
            self.skip_attrs();
            if self.at_punct("..") {
                self.bump();
                base = Some(Box::new(self.parse_expr(0, false)));
                break;
            }
            let f_line = self.line();
            let Some(fname) = self.take_ident() else {
                self.bump();
                continue;
            };
            let value = if self.eat_punct(":") {
                self.parse_expr(0, false)
            } else {
                Expr::Path {
                    segs: vec![fname.clone()],
                    line: f_line,
                }
            };
            fields.push((fname, value, f_line));
            if !self.eat_punct(",") {
                break;
            }
        }
        self.eat_punct("}");
        Expr::StructLit {
            name,
            fields,
            base,
            line,
        }
    }

    fn parse_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        if !self.eat_punct("(") {
            return args;
        }
        while !self.at_punct(")") && !self.at_end() {
            let before = self.pos;
            args.push(self.parse_expr(0, false));
            self.eat_punct(",");
            if self.pos == before {
                self.bump();
            }
        }
        self.eat_punct(")");
        args
    }

    fn parse_postfix(&mut self, mut lhs: Expr) -> Expr {
        loop {
            match self.peek() {
                Some(Tok::Punct("?")) => {
                    self.bump();
                }
                Some(Tok::Punct(".")) => {
                    let line = self.line();
                    match self.peek_at(1) {
                        Some(Tok::Ident(_)) => {
                            self.bump();
                            let name = self.take_ident().unwrap_or_default();
                            // Optional turbofish between name and args.
                            if self.at_punct("::") {
                                if let Some(Tok::Punct("<")) = self.peek_at(1) {
                                    self.bump();
                                    self.skip_angles();
                                }
                            }
                            if self.at_punct("(") {
                                let args = self.parse_args();
                                lhs = Expr::MethodCall {
                                    base: Box::new(lhs),
                                    name,
                                    args,
                                    line,
                                };
                            } else {
                                lhs = Expr::Field {
                                    base: Box::new(lhs),
                                    name,
                                    line,
                                };
                            }
                        }
                        Some(Tok::Num(n)) => {
                            let name = n.clone();
                            self.bump();
                            self.bump();
                            lhs = Expr::Field {
                                base: Box::new(lhs),
                                name,
                                line,
                            };
                        }
                        _ => {
                            self.bump();
                        }
                    }
                }
                Some(Tok::Punct("(")) => {
                    let args = self.parse_args();
                    lhs = Expr::CallExpr {
                        base: Box::new(lhs),
                        args,
                    };
                }
                Some(Tok::Punct("[")) => {
                    self.bump();
                    let index = self.parse_expr(0, false);
                    self.eat_punct("]");
                    lhs = Expr::Index {
                        base: Box::new(lhs),
                        index: Box::new(index),
                    };
                }
                _ => break,
            }
        }
        lhs
    }

    /// Skips the type after `as`. Consumes `<`-generics only directly
    /// after an identifier so `x as f64 > y` keeps its comparison.
    fn skip_cast_type(&mut self) {
        let mut angle = 0i32;
        let mut prev_ident = false;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Ident(w)
                    if matches!(
                        w.as_str(),
                        "dyn" | "mut" | "const" | "fn" | "impl" | "for" | "where"
                    ) || angle > 0
                        || !prev_ident =>
                {
                    prev_ident = !matches!(
                        w.as_str(),
                        "dyn" | "mut" | "const" | "fn" | "impl" | "for" | "where"
                    );
                    self.bump();
                }
                Tok::Punct("::") => {
                    prev_ident = false;
                    self.bump();
                }
                Tok::Punct("<") if prev_ident || angle > 0 => {
                    angle += 1;
                    prev_ident = false;
                    self.bump();
                }
                Tok::Punct(">") if angle > 0 => {
                    angle -= 1;
                    self.bump();
                }
                Tok::Punct(">>") if angle > 1 => {
                    angle -= 2;
                    self.bump();
                }
                Tok::Punct("&") | Tok::Lifetime(_) if angle > 0 || !prev_ident => {
                    self.bump();
                }
                Tok::Punct("(") | Tok::Punct("[") if !prev_ident || angle > 0 => {
                    self.skip_group();
                    prev_ident = true;
                }
                Tok::Punct(",") | Tok::Punct(";") if angle > 0 => self.bump(),
                _ => return,
            }
        }
    }
}

const UNARY_BP: u8 = 25;
const RANGE_RBP: u8 = 4;
const COMPARE_RBP: u8 = 10;
const CLOSURE_BODY_BP: u8 = 1;

enum BinKind {
    Plain,
    Assign,
    Range,
}

/// Binding powers: `(spelling, left-bp, right-bp, kind)`.
fn binary_power(p: &str) -> Option<(&'static str, u8, u8, BinKind)> {
    Some(match p {
        "=" => ("=", 2, 1, BinKind::Assign),
        "+=" => ("+=", 2, 1, BinKind::Assign),
        "-=" => ("-=", 2, 1, BinKind::Assign),
        "*=" => ("*=", 2, 1, BinKind::Assign),
        "/=" => ("/=", 2, 1, BinKind::Assign),
        "%=" => ("%=", 2, 1, BinKind::Assign),
        "&=" => ("&=", 2, 1, BinKind::Assign),
        "|=" => ("|=", 2, 1, BinKind::Assign),
        "^=" => ("^=", 2, 1, BinKind::Assign),
        "<<=" => ("<<=", 2, 1, BinKind::Assign),
        ">>=" => (">>=", 2, 1, BinKind::Assign),
        ".." => ("..", 3, RANGE_RBP, BinKind::Range),
        "..=" => ("..=", 3, RANGE_RBP, BinKind::Range),
        "||" => ("||", 5, 6, BinKind::Plain),
        "&&" => ("&&", 7, 8, BinKind::Plain),
        "==" => ("==", 9, COMPARE_RBP, BinKind::Plain),
        "!=" => ("!=", 9, COMPARE_RBP, BinKind::Plain),
        "<" => ("<", 9, COMPARE_RBP, BinKind::Plain),
        ">" => (">", 9, COMPARE_RBP, BinKind::Plain),
        "<=" => ("<=", 9, COMPARE_RBP, BinKind::Plain),
        ">=" => (">=", 9, COMPARE_RBP, BinKind::Plain),
        "|" => ("|", 11, 12, BinKind::Plain),
        "^" => ("^", 13, 14, BinKind::Plain),
        "&" => ("&", 15, 16, BinKind::Plain),
        "<<" => ("<<", 17, 18, BinKind::Plain),
        ">>" => (">>", 17, 18, BinKind::Plain),
        "+" => ("+", 19, 20, BinKind::Plain),
        "-" => ("-", 19, 20, BinKind::Plain),
        "*" => ("*", 21, 22, BinKind::Plain),
        "/" => ("/", 21, 22, BinKind::Plain),
        "%" => ("%", 21, 22, BinKind::Plain),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> FileAst {
        let stripped = crate::strip(src);
        parse_file(&lex(&stripped.code))
    }

    fn only_fn(ast: &FileAst) -> &FnAst {
        assert_eq!(ast.fns.len(), 1, "{:?}", ast.fns);
        &ast.fns[0]
    }

    #[test]
    fn extracts_fn_name_params_and_body() {
        let ast = parse("fn drain(&mut self, dt_s: f64, load: usize) -> f64 { dt_s * 2.0 }\n");
        let f = only_fn(&ast);
        assert_eq!(f.name, "drain");
        assert!(f.has_receiver);
        assert_eq!(
            f.params.iter().map(|p| p.name.clone()).collect::<Vec<_>>(),
            vec![Some("dt_s".into()), Some("load".into())]
        );
        assert_eq!(f.body.len(), 1);
        assert!(matches!(
            &f.body[0],
            Stmt::Expr {
                expr: Expr::Binary { op: "*", .. },
                has_semi: false
            }
        ));
    }

    #[test]
    fn impl_methods_get_qualified_names() {
        let ast = parse("impl Session { fn ingest(&mut self) {} }\nimpl Iterator for Ring { fn next(&mut self) {} }\n");
        assert_eq!(ast.fns[0].qual, "Session::ingest");
        assert_eq!(ast.fns[1].qual, "Ring::next");
    }

    #[test]
    fn precedence_builds_the_expected_tree() {
        let ast = parse("fn f() { let x = a_j + b_w * dt_s; }\n");
        let f = only_fn(&ast);
        let Stmt::Let {
            init: Some(Expr::Binary { op: "+", rhs, .. }),
            ..
        } = &f.body[0]
        else {
            panic!("{:?}", f.body);
        };
        assert!(matches!(**rhs, Expr::Binary { op: "*", .. }));
    }

    #[test]
    fn calls_methods_fields_and_indexing() {
        let ast = parse("fn f() { g(a, 1.0); s.step(b); t.field; v[i]; a::b::h(); }\n");
        let f = only_fn(&ast);
        assert!(
            matches!(&f.body[0], Stmt::Expr { expr: Expr::Call { segs, args, .. }, .. }
            if segs == &vec!["g".to_string()] && args.len() == 2)
        );
        assert!(
            matches!(&f.body[1], Stmt::Expr { expr: Expr::MethodCall { name, .. }, .. }
            if name == "step")
        );
        assert!(
            matches!(&f.body[2], Stmt::Expr { expr: Expr::Field { name, .. }, .. }
            if name == "field")
        );
        assert!(matches!(
            &f.body[3],
            Stmt::Expr {
                expr: Expr::Index { .. },
                ..
            }
        ));
        assert!(
            matches!(&f.body[4], Stmt::Expr { expr: Expr::Call { segs, .. }, .. }
            if segs == &vec!["a".to_string(), "b".to_string(), "h".to_string()])
        );
    }

    #[test]
    fn struct_literals_only_for_upper_camel_paths() {
        let ast = parse("fn f() { let s = Sample { energy_j: e, dt_s: 0.1 }; }\n");
        let f = only_fn(&ast);
        let Stmt::Let {
            init: Some(Expr::StructLit { name, fields, .. }),
            ..
        } = &f.body[0]
        else {
            panic!("{:?}", f.body);
        };
        assert_eq!(name, "Sample");
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].0, "energy_j");
    }

    #[test]
    fn no_struct_literal_in_condition_position() {
        // `if x { y() }` must parse the block as a body, not `x { … }`.
        let ast = parse("fn f() { if ready { go(); } }\n");
        let f = only_fn(&ast);
        let Stmt::Expr {
            expr: Expr::Scope(stmts),
            ..
        } = &f.body[0]
        else {
            panic!("{:?}", f.body);
        };
        assert!(
            matches!(&stmts[0], Stmt::Expr { expr: Expr::Path { segs, .. }, .. }
            if segs == &vec!["ready".to_string()])
        );
    }

    #[test]
    fn control_flow_exposes_conditions_and_bodies() {
        let ast = parse(
            "fn f() { if a_j > b_j { x(); } else { y(); }\n\
             for i in 0..n { z(i); }\n\
             match v { Some(k) => use_k(k), None => 0.0, }; }\n",
        );
        let f = only_fn(&ast);
        // Three statements: if-scope, for-scope, match-scope.
        assert_eq!(f.body.len(), 3, "{:?}", f.body);
        for stmt in &f.body {
            assert!(matches!(
                stmt,
                Stmt::Expr {
                    expr: Expr::Scope(_),
                    ..
                }
            ));
        }
    }

    #[test]
    fn closures_keep_their_bodies() {
        let ast = parse("fn f() { items.map(|x| x.energy_j + 1.0); }\n");
        let f = only_fn(&ast);
        let Stmt::Expr {
            expr: Expr::MethodCall { args, .. },
            ..
        } = &f.body[0]
        else {
            panic!("{:?}", f.body);
        };
        assert!(matches!(&args[0], Expr::Closure { .. }));
    }

    #[test]
    fn macros_are_opaque() {
        let ast = parse("fn f() { println!(\"{} {}\", a_j, b_w); vec![1, 2]; }\n");
        let f = only_fn(&ast);
        assert!(matches!(
            &f.body[0],
            Stmt::Expr {
                expr: Expr::Opaque,
                ..
            }
        ));
    }

    #[test]
    fn nested_fns_become_separate_entries() {
        let ast = parse("fn outer() { fn inner(x_j: f64) -> f64 { x_j } inner(1.0); }\n");
        assert_eq!(ast.fns.len(), 2);
        // Inner is parsed first (completed before outer closes).
        assert_eq!(ast.fns[0].name, "inner");
        assert_eq!(ast.fns[1].name, "outer");
    }

    #[test]
    fn consts_parse_as_let_like_statements() {
        let ast = parse("const IDLE_FLOOR_W: f64 = 1.56;\nstatic LIMIT_S: f64 = 9.0;\n");
        assert_eq!(ast.consts.len(), 2);
        assert!(
            matches!(&ast.consts[0], Stmt::Let { name: Some(n), init: Some(Expr::Lit), .. }
            if n == "IDLE_FLOOR_W")
        );
    }

    #[test]
    fn turbofish_and_generics_do_not_derail() {
        let ast = parse(
            "fn f() { let v = Vec::<f64>::new(); let s = items.iter().sum::<f64>(); g::<u32>(x); }\n",
        );
        let f = only_fn(&ast);
        assert_eq!(f.body.len(), 3);
        assert!(
            matches!(&f.body[2], Stmt::Expr { expr: Expr::Call { segs, .. }, .. }
            if segs == &vec!["g".to_string()])
        );
    }

    #[test]
    fn cast_keeps_comparison_after_it() {
        let ast = parse("fn f() { let ok = x as f64 > y; }\n");
        let f = only_fn(&ast);
        let Stmt::Let {
            init: Some(Expr::Binary { op: ">", lhs, .. }),
            ..
        } = &f.body[0]
        else {
            panic!("{:?}", f.body);
        };
        assert!(matches!(**lhs, Expr::Cast { .. }));
    }

    #[test]
    fn let_patterns_without_simple_names_are_tolerated() {
        let ast = parse("fn f() { let (a, b) = pair(); let [x, y] = arr; let Some(v) = opt else { return; }; }\n");
        let f = only_fn(&ast);
        assert_eq!(f.body.len(), 3);
        for stmt in &f.body {
            assert!(matches!(stmt, Stmt::Let { name: None, .. }), "{stmt:?}");
        }
    }

    #[test]
    fn trait_default_methods_and_signatures() {
        let ast =
            parse("trait Meter { fn read_w(&self) -> f64; fn idle_w(&self) -> f64 { 0.0 } }\n");
        assert_eq!(ast.fns.len(), 2);
        assert_eq!(ast.fns[0].qual, "Meter::read_w");
        assert!(!ast.fns[0].has_body);
        assert!(ast.fns[1].has_body);
    }

    #[test]
    fn ranges_and_reference_patterns() {
        let ast = parse("fn f() { let r = 0..n; let s = &xs[1..]; let t = ..limit_s; }\n");
        let f = only_fn(&ast);
        assert_eq!(f.body.len(), 3);
        assert!(matches!(
            &f.body[0],
            Stmt::Let {
                init: Some(Expr::Range { .. }),
                ..
            }
        ));
    }

    #[test]
    fn deep_nesting_degrades_instead_of_overflowing() {
        let mut src = String::from("fn f() { let x = ");
        for _ in 0..400 {
            src.push('(');
        }
        src.push('1');
        for _ in 0..400 {
            src.push(')');
        }
        src.push_str("; }\n");
        let ast = parse(&src); // Must not panic or hang.
        assert_eq!(ast.fns.len(), 1);
    }

    #[test]
    fn where_clauses_and_generic_fns() {
        let ast = parse(
            "fn fan<T: Send, F>(threads: usize, f: F) -> Vec<T> where F: Fn(usize) -> T { run(f) }\n",
        );
        let f = only_fn(&ast);
        assert_eq!(f.name, "fan");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, Some("threads".into()));
        assert_eq!(f.body.len(), 1);
    }
}
