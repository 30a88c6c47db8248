//! Abstract syntax tree for the supported SQL dialect, plus a canonical
//! SQL renderer (`Display`) used both by tests and by the CodeS generator,
//! which emits ASTs and serializes them back to SQL text.

use std::fmt;

use crate::value::Value;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE ...`
    CreateTable(CreateTable),
    /// `INSERT INTO ...`
    Insert(Insert),
    /// A `SELECT` query (possibly a set operation).
    Query(Query),
}

/// `CREATE TABLE` definition.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// Column definitions in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Table-level `PRIMARY KEY (a, b)` column names (inline PKs are on the
    /// column defs).
    pub primary_key: Vec<String>,
    /// Foreign-key constraints (inline and table-level).
    pub foreign_keys: Vec<ForeignKeyDef>,
}

/// One column of a `CREATE TABLE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Raw SQL type name as written (`VARCHAR(30)`, `double precision`...).
    pub type_name: String,
    /// Declared inline as `PRIMARY KEY`.
    pub primary_key: bool,
    /// Declared `NOT NULL` (implied by `PRIMARY KEY`).
    pub not_null: bool,
    /// `COMMENT '...'` attached to the column.
    pub comment: Option<String>,
}

/// A foreign-key constraint of a `CREATE TABLE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ForeignKeyDef {
    /// Referencing column of this table.
    pub column: String,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced column.
    pub ref_column: String,
}

/// `INSERT INTO` statement. Values are restricted to literal expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// Optional explicit column list.
    pub columns: Option<Vec<String>>,
    /// Rows of (constant) value expressions.
    pub rows: Vec<Vec<Expr>>,
}

/// A full query: set-expression body plus trailing ORDER BY / LIMIT.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The set-expression body (one SELECT core or a set operation).
    pub body: SetExpr,
    /// Top-level `ORDER BY` keys.
    pub order_by: Vec<OrderItem>,
    /// `LIMIT` expression (constant).
    pub limit: Option<Expr>,
    /// `OFFSET` expression (constant).
    pub offset: Option<Expr>,
}

impl Query {
    /// Wrap a plain SELECT core into a query with no ORDER BY/LIMIT.
    pub fn plain(select: Select) -> Query {
        Query {
            body: SetExpr::Select(Box::new(select)),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }

    /// The left-most SELECT core (used for output column naming).
    pub fn leftmost_select(&self) -> &Select {
        self.body.leftmost_select()
    }

    /// True when the top level of the query imposes an output ordering.
    pub fn is_ordered(&self) -> bool {
        !self.order_by.is_empty()
    }
}

/// The body of a query: SELECT cores combined by set operators.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    /// A single SELECT core.
    Select(Box<Select>),
    /// A parenthesized query with its own ORDER BY / LIMIT, appearing as a
    /// term of a set operation.
    Nested(Box<Query>),
    /// `left (UNION|INTERSECT|EXCEPT) [ALL] right`.
    SetOp {
        /// Which set operator.
        op: SetOpKind,
        /// `ALL` keeps duplicates (UNION only).
        all: bool,
        /// Left operand.
        left: Box<SetExpr>,
        /// Right operand.
        right: Box<SetExpr>,
    },
}

impl SetExpr {
    /// The left-most SELECT core (used for output column naming).
    pub fn leftmost_select(&self) -> &Select {
        match self {
            SetExpr::Select(s) => s,
            SetExpr::Nested(q) => q.leftmost_select(),
            SetExpr::SetOp { left, .. } => left.leftmost_select(),
        }
    }
}

/// The three SQL set operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOpKind {
    /// `UNION` (deduplicating unless `ALL`).
    Union,
    /// `INTERSECT` (set semantics).
    Intersect,
    /// `EXCEPT` (set difference).
    Except,
}

/// One SELECT core.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projection list.
    pub projection: Vec<SelectItem>,
    /// `FROM` clause, if any.
    pub from: Option<FromClause>,
    /// `WHERE` predicate.
    pub selection: Option<Expr>,
    /// `GROUP BY` keys.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
}

impl Select {
    /// A bare `SELECT <projection>` with no other clauses.
    pub fn new(projection: Vec<SelectItem>) -> Select {
        Select {
            distinct: false,
            projection,
            from: None,
            selection: None,
            group_by: Vec::new(),
            having: None,
        }
    }
}

/// One item of a projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `table.*`
    QualifiedWildcard(String),
    /// An expression with optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// `AS alias`, if given.
        alias: Option<String>,
    },
}

/// A `FROM` clause: a base factor plus zero or more joins.
#[derive(Debug, Clone, PartialEq)]
pub struct FromClause {
    /// The first table factor.
    pub base: TableFactor,
    /// Subsequent joined factors, in order.
    pub joins: Vec<Join>,
}

/// A table reference in a `FROM` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum TableFactor {
    /// A base table, optionally aliased.
    Table {
        /// Table name.
        name: String,
        /// `AS alias`, if given.
        alias: Option<String>,
    },
    /// A parenthesized subquery with a mandatory alias.
    Derived {
        /// The subquery.
        subquery: Box<Query>,
        /// Binding name.
        alias: String,
    },
}

impl TableFactor {
    /// The name this factor is referred to by in column qualifiers.
    pub fn binding_name(&self) -> &str {
        match self {
            TableFactor::Table { name, alias } => alias.as_deref().unwrap_or(name),
            TableFactor::Derived { alias, .. } => alias,
        }
    }
}

/// Supported join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `[INNER] JOIN`.
    Inner,
    /// `LEFT [OUTER] JOIN`.
    Left,
    /// `CROSS JOIN` or comma join.
    Cross,
}

/// One join step of a `FROM` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Join kind.
    pub kind: JoinKind,
    /// The joined factor.
    pub factor: TableFactor,
    /// `ON` predicate, if any.
    pub on: Option<Expr>,
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort expression.
    pub expr: Expr,
    /// `DESC` when true, `ASC` otherwise.
    pub desc: bool,
}

/// Binary operators, in SQL semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // operator names are their own documentation
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Concat,
}

impl BinaryOp {
    /// The operator's SQL spelling.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Concat => "||",
        }
    }

    /// True for comparison operators (used by generation grammar).
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::NotEq | BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT (three-valued).
    Not,
}

/// Expression tree.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field names mirror SQL syntax directly
pub enum Expr {
    Column { table: Option<String>, name: String },
    Literal(Value),
    Unary { op: UnaryOp, expr: Box<Expr> },
    Binary { left: Box<Expr>, op: BinaryOp, right: Box<Expr> },
    /// Function call; `star` marks `COUNT(*)`.
    Function { name: String, args: Vec<Expr>, distinct: bool, star: bool },
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    InList { expr: Box<Expr>, list: Vec<Expr>, negated: bool },
    InSubquery { expr: Box<Expr>, query: Box<Query>, negated: bool },
    ScalarSubquery(Box<Query>),
    Exists { query: Box<Query>, negated: bool },
    Between { expr: Box<Expr>, low: Box<Expr>, high: Box<Expr>, negated: bool },
    Like { expr: Box<Expr>, pattern: Box<Expr>, negated: bool },
    IsNull { expr: Box<Expr>, negated: bool },
    Cast { expr: Box<Expr>, type_name: String },
}

impl Expr {
    /// An unqualified column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Column { table: None, name: name.to_string() }
    }

    /// A table-qualified column reference.
    pub fn qcol(table: &str, name: &str) -> Expr {
        Expr::Column { table: Some(table.to_string()), name: name.to_string() }
    }

    /// A literal value expression.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// A binary expression.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }

    /// `left AND right`.
    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinaryOp::And, right)
    }

    /// A function call (name upper-cased).
    pub fn func(name: &str, args: Vec<Expr>) -> Expr {
        Expr::Function { name: name.to_uppercase(), args, distinct: false, star: false }
    }

    /// `COUNT(*)`.
    pub fn count_star() -> Expr {
        Expr::Function { name: "COUNT".into(), args: Vec::new(), distinct: false, star: true }
    }

    /// True when the expression (recursively) contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Function { name, args, star, .. } => {
                *star
                    || is_aggregate_name(name)
                    || args.iter().any(Expr::contains_aggregate)
            }
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::Binary { left, right, .. } => left.contains_aggregate() || right.contains_aggregate(),
            Expr::Case { operand, branches, else_expr } => {
                operand.as_deref().map(Expr::contains_aggregate).unwrap_or(false)
                    || branches.iter().any(|(c, r)| c.contains_aggregate() || r.contains_aggregate())
                    || else_expr.as_deref().map(Expr::contains_aggregate).unwrap_or(false)
            }
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::Between { expr, low, high, .. } => {
                expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate()
            }
            Expr::Like { expr, pattern, .. } => expr.contains_aggregate() || pattern.contains_aggregate(),
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::Cast { expr, .. } => expr.contains_aggregate(),
            Expr::InSubquery { expr, .. } => expr.contains_aggregate(),
            Expr::Column { .. }
            | Expr::Literal(_)
            | Expr::ScalarSubquery(_)
            | Expr::Exists { .. } => false,
        }
    }
}

/// Aggregate function names the executor understands.
pub fn is_aggregate_name(name: &str) -> bool {
    ["COUNT", "SUM", "AVG", "MIN", "MAX", "TOTAL", "GROUP_CONCAT"]
        .iter()
        .any(|aggregate| aggregate.eq_ignore_ascii_case(name))
}

// ---------------------------------------------------------------------------
// Canonical SQL rendering
// ---------------------------------------------------------------------------

/// Quote an identifier only when required.
fn ident(name: &str) -> String {
    let needs_quote = name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_')
        || name.chars().next().is_some_and(|c| c.is_ascii_digit())
        || crate::lexer::tokenize(name)
            .map(|t| matches!(t.first(), Some(crate::lexer::Token::Keyword(_))))
            .unwrap_or(true);
    if needs_quote {
        format!("\"{}\"", name.replace('"', "\"\""))
    } else {
        name.to_string()
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateTable(c) => write!(f, "{c}"),
            Statement::Insert(i) => write!(f, "{i}"),
            Statement::Query(q) => write!(f, "{q}"),
        }
    }
}

impl fmt::Display for CreateTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CREATE TABLE {} (", ident(&self.name))?;
        let mut first = true;
        for c in &self.columns {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{} {}", ident(&c.name), c.type_name)?;
            if c.primary_key {
                write!(f, " PRIMARY KEY")?;
            } else if c.not_null {
                write!(f, " NOT NULL")?;
            }
            if let Some(comment) = &c.comment {
                write!(f, " COMMENT '{}'", comment.replace('\'', "''"))?;
            }
        }
        if !self.primary_key.is_empty() {
            write!(
                f,
                ", PRIMARY KEY ({})",
                self.primary_key.iter().map(|c| ident(c)).collect::<Vec<_>>().join(", ")
            )?;
        }
        for fk in &self.foreign_keys {
            write!(
                f,
                ", FOREIGN KEY ({}) REFERENCES {}({})",
                ident(&fk.column),
                ident(&fk.ref_table),
                ident(&fk.ref_column)
            )?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Insert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INSERT INTO {}", ident(&self.table))?;
        if let Some(cols) = &self.columns {
            write!(f, " ({})", cols.iter().map(|c| ident(c)).collect::<Vec<_>>().join(", "))?;
        }
        write!(f, " VALUES ")?;
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "({})",
                row.iter().map(|e| e.to_string()).collect::<Vec<_>>().join(", ")
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.body)?;
        if !self.order_by.is_empty() {
            write!(
                f,
                " ORDER BY {}",
                self.order_by
                    .iter()
                    .map(|o| format!("{}{}", o.expr, if o.desc { " DESC" } else { " ASC" }))
                    .collect::<Vec<_>>()
                    .join(", ")
            )?;
        }
        if let Some(limit) = &self.limit {
            write!(f, " LIMIT {limit}")?;
        }
        if let Some(offset) = &self.offset {
            write!(f, " OFFSET {offset}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SetExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetExpr::Select(s) => write!(f, "{s}"),
            SetExpr::Nested(q) => write!(f, "({q})"),
            SetExpr::SetOp { op, all, left, right } => {
                let kw = match op {
                    SetOpKind::Union => "UNION",
                    SetOpKind::Intersect => "INTERSECT",
                    SetOpKind::Except => "EXCEPT",
                };
                write!(f, "{left} {kw}{} {right}", if *all { " ALL" } else { "" })
            }
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, item) in self.projection.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match item {
                SelectItem::Wildcard => write!(f, "*")?,
                SelectItem::QualifiedWildcard(t) => write!(f, "{}.*", ident(t))?,
                SelectItem::Expr { expr, alias } => {
                    write!(f, "{expr}")?;
                    if let Some(a) = alias {
                        write!(f, " AS {}", ident(a))?;
                    }
                }
            }
        }
        if let Some(from) = &self.from {
            write!(f, " FROM {}", from)?;
        }
        if let Some(sel) = &self.selection {
            write!(f, " WHERE {sel}")?;
        }
        if !self.group_by.is_empty() {
            write!(
                f,
                " GROUP BY {}",
                self.group_by.iter().map(|e| e.to_string()).collect::<Vec<_>>().join(", ")
            )?;
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        Ok(())
    }
}

impl fmt::Display for FromClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        for j in &self.joins {
            let kw = match j.kind {
                JoinKind::Inner => "JOIN",
                JoinKind::Left => "LEFT JOIN",
                JoinKind::Cross => "CROSS JOIN",
            };
            write!(f, " {kw} {}", j.factor)?;
            if let Some(on) = &j.on {
                write!(f, " ON {on}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for TableFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableFactor::Table { name, alias } => {
                write!(f, "{}", ident(name))?;
                if let Some(a) = alias {
                    write!(f, " AS {}", ident(a))?;
                }
                Ok(())
            }
            TableFactor::Derived { subquery, alias } => {
                write!(f, "({subquery}) AS {}", ident(alias))
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { table, name } => match table {
                Some(t) => write!(f, "{}.{}", ident(t), ident(name)),
                None => write!(f, "{}", ident(name)),
            },
            Expr::Literal(v) => write!(f, "{}", v.to_literal()),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => write!(f, "-{expr}"),
                UnaryOp::Not => write!(f, "NOT {expr}"),
            },
            Expr::Binary { left, op, right } => {
                // Parenthesize nested OR under AND to keep rendering
                // unambiguous without tracking precedence.
                let needs_paren = |e: &Expr| {
                    matches!(
                        e,
                        Expr::Binary { op: BinaryOp::Or, .. } | Expr::Binary { op: BinaryOp::And, .. }
                    ) && op.is_comparison()
                };
                let fmt_side = |e: &Expr| {
                    if needs_paren(e) {
                        format!("({e})")
                    } else {
                        format!("{e}")
                    }
                };
                write!(f, "{} {} {}", fmt_side(left), op.symbol(), fmt_side(right))
            }
            Expr::Function { name, args, distinct, star } => {
                if *star {
                    return write!(f, "{name}(*)");
                }
                write!(
                    f,
                    "{name}({}{})",
                    if *distinct { "DISTINCT " } else { "" },
                    args.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(", ")
                )
            }
            Expr::Case { operand, branches, else_expr } => {
                write!(f, "CASE")?;
                if let Some(op) = operand {
                    write!(f, " {op}")?;
                }
                for (cond, result) in branches {
                    write!(f, " WHEN {cond} THEN {result}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::InList { expr, list, negated } => write!(
                f,
                "{expr} {}IN ({})",
                if *negated { "NOT " } else { "" },
                list.iter().map(|e| e.to_string()).collect::<Vec<_>>().join(", ")
            ),
            Expr::InSubquery { expr, query, negated } => {
                write!(f, "{expr} {}IN ({query})", if *negated { "NOT " } else { "" })
            }
            Expr::ScalarSubquery(q) => write!(f, "({q})"),
            Expr::Exists { query, negated } => {
                write!(f, "{}EXISTS ({query})", if *negated { "NOT " } else { "" })
            }
            Expr::Between { expr, low, high, negated } => write!(
                f,
                "{expr} {}BETWEEN {low} AND {high}",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Like { expr, pattern, negated } => {
                write!(f, "{expr} {}LIKE {pattern}", if *negated { "NOT " } else { "" })
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::Cast { expr, type_name } => write!(f, "CAST({expr} AS {type_name})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_simple_select() {
        let q = Query::plain(Select {
            distinct: true,
            projection: vec![SelectItem::Expr { expr: Expr::col("name"), alias: None }],
            from: Some(FromClause {
                base: TableFactor::Table { name: "users".into(), alias: None },
                joins: vec![],
            }),
            selection: Some(Expr::binary(Expr::col("age"), BinaryOp::Gt, Expr::lit(18))),
            group_by: vec![],
            having: None,
        });
        assert_eq!(q.to_string(), "SELECT DISTINCT name FROM users WHERE age > 18");
    }

    #[test]
    fn render_count_star_and_group() {
        let q = Query {
            body: SetExpr::Select(Box::new(Select {
                distinct: false,
                projection: vec![
                    SelectItem::Expr { expr: Expr::col("dept"), alias: None },
                    SelectItem::Expr { expr: Expr::count_star(), alias: Some("n".into()) },
                ],
                from: Some(FromClause {
                    base: TableFactor::Table { name: "emp".into(), alias: None },
                    joins: vec![],
                }),
                selection: None,
                group_by: vec![Expr::col("dept")],
                having: None,
            })),
            order_by: vec![OrderItem { expr: Expr::count_star(), desc: true }],
            limit: Some(Expr::lit(1)),
            offset: None,
        };
        assert_eq!(
            q.to_string(),
            "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY COUNT(*) DESC LIMIT 1"
        );
    }

    #[test]
    fn identifiers_quote_when_needed() {
        assert_eq!(ident("plain_name"), "plain_name");
        assert_eq!(ident("has space"), "\"has space\"");
        assert_eq!(ident("select"), "\"select\"");
        assert_eq!(ident("1st"), "\"1st\"");
    }

    #[test]
    fn aggregate_detection() {
        assert!(Expr::count_star().contains_aggregate());
        assert!(Expr::binary(Expr::func("SUM", vec![Expr::col("x")]), BinaryOp::Gt, Expr::lit(3))
            .contains_aggregate());
        assert!(!Expr::func("LENGTH", vec![Expr::col("x")]).contains_aggregate());
    }

    #[test]
    fn render_text_literal_escapes() {
        let e = Expr::lit("O'Brien");
        assert_eq!(e.to_string(), "'O''Brien'");
    }
}
