package repro.core

import Ast._

/** Recursive-descent parser for the loop-based language of Figure 1.
  *
  * Statement syntax follows the paper's concrete examples:
  * {{{
  *   var sum: double = 0.0;
  *   for i = 0, n-1 do { ... }
  *   for v in V do ...
  *   while (e) { ... }
  *   if (e) s [else s]
  *   V[i,j] := e;   C[k] += e;   b &&= e;   m min= e;
  * }}}
  * Expressions: literals, identifiers, indexing, field projection (`p.x`,
  * `t._1`), calls, tuples, and the usual operators with C-like precedence.
  */
object Parser {

  final case class ParseError(msg: String, pos: Int)
      extends RuntimeException(s"parse error at offset $pos: $msg")

  // ---------------------------------------------------------------- lexer

  sealed trait Tok { def pos: Int }
  private final case class TId(s: String, pos: Int)     extends Tok
  private final case class TInt(v: Long, pos: Int)      extends Tok
  private final case class TDouble(v: Double, pos: Int) extends Tok
  private final case class TStr(s: String, pos: Int)    extends Tok
  private final case class TSym(s: String, pos: Int)    extends Tok
  private final case class TEof(pos: Int)               extends Tok

  private val keywords =
    Set("var", "for", "in", "do", "while", "if", "else", "true", "false")

  // Longest-match symbol list; order matters.
  private val symbols = List(
    ":=", "+=", "*=", "&&=", "||=", "min=", "max=",
    "&&", "||", "==", "!=", "<=", ">=",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", ".",
    "+", "-", "*", "/", "%", "<", ">", "=", "!"
  )

  private def lex(src: String): Vector[Tok] = {
    val out = Vector.newBuilder[Tok]
    var i = 0
    val n = src.length
    while (i < n) {
      val c = src(i)
      if (c.isWhitespace) i += 1
      else if (c == '/' && i + 1 < n && src(i + 1) == '/') {
        while (i < n && src(i) != '\n') i += 1
      } else if (c.isDigit) {
        val start = i
        while (i < n && src(i).isDigit) i += 1
        var isDouble = false
        if (i < n && src(i) == '.' && i + 1 < n && src(i + 1).isDigit) {
          isDouble = true; i += 1
          while (i < n && src(i).isDigit) i += 1
        }
        if (i < n && (src(i) == 'e' || src(i) == 'E')) {
          isDouble = true; i += 1
          if (i < n && (src(i) == '+' || src(i) == '-')) i += 1
          while (i < n && src(i).isDigit) i += 1
        }
        val s = src.substring(start, i)
        out += (if (isDouble) TDouble(s.toDouble, start) else TInt(s.toLong, start))
      } else if (c.isLetter || c == '_') {
        val start = i
        while (i < n && (src(i).isLetterOrDigit || src(i) == '_' || src(i) == '\'')) i += 1
        val s = src.substring(start, i)
        // `min=` / `max=` are update operators, lexed as one token.
        if ((s == "min" || s == "max") && i < n && src(i) == '=' &&
            !(i + 1 < n && src(i + 1) == '=')) {
          i += 1; out += TSym(s + "=", start)
        } else out += TId(s, start)
      } else if (c == '"') {
        val start = i; i += 1
        val sb = new StringBuilder
        while (i < n && src(i) != '"') { sb += src(i); i += 1 }
        if (i >= n) throw ParseError("unterminated string", start)
        i += 1
        out += TStr(sb.toString, start)
      } else {
        symbols.find(sym => src.startsWith(sym, i)) match {
          case Some(sym) => out += TSym(sym, i); i += sym.length
          case None      => throw ParseError(s"unexpected character '$c'", i)
        }
      }
    }
    out += TEof(n)
    out.result()
  }

  // --------------------------------------------------------------- parser

  private final class P(toks: Vector[Tok]) {
    private var k = 0
    private def peek: Tok = toks(k)
    private def next(): Tok = { val t = toks(k); k += 1; t }
    private def fail(msg: String): Nothing = throw ParseError(msg, peek.pos)

    private def isSym(s: String): Boolean = peek match {
      case TSym(x, _) => x == s
      case _          => false
    }
    private def isId(s: String): Boolean = peek match {
      case TId(x, _) => x == s
      case _         => false
    }
    private def eatSym(s: String): Unit =
      if (isSym(s)) { k += 1 } else fail(s"expected '$s'")
    private def eatId(s: String): Unit =
      if (isId(s)) { k += 1 } else fail(s"expected '$s'")
    private def ident(): String = peek match {
      case TId(s, _) if !keywords(s) => k += 1; s
      case _                         => fail("expected identifier")
    }

    /** `first`, then `item` after each comma, then the symbol `close`. */
    private def commaList[A](first: A, close: String)(item: => A): List[A] = {
      val xs = List.newBuilder[A]
      xs += first
      while (isSym(",")) { next(); xs += item }
      eatSym(close)
      xs.result()
    }

    def program(): List[Stmt] = {
      val ss = List.newBuilder[Stmt]
      while (!peek.isInstanceOf[TEof]) ss += stmt()
      ss.result()
    }

    def stmt(): Stmt = {
      if (isId("var")) {
        next()
        val name = ident()
        eatSym(":")
        val t = tpe()
        eatSym("=")
        val init = expr()
        eatSym(";")
        Decl(name, t, init)
      } else if (isId("for")) {
        next()
        val v = ident()
        if (isId("in")) {
          next()
          val coll = ident()
          eatId("do")
          ForIn(v, coll, stmt())
        } else {
          eatSym("=")
          val lo = expr()
          eatSym(",")
          val hi = expr()
          eatId("do")
          ForRange(v, lo, hi, stmt())
        }
      } else if (isId("while")) {
        next(); eatSym("(")
        val c = expr()
        eatSym(")")
        While(c, stmt())
      } else if (isId("if")) {
        next(); eatSym("(")
        val c = expr()
        eatSym(")")
        val t = stmt()
        val e = if (isId("else")) { next(); Some(stmt()) } else None
        If(c, t, e)
      } else if (isSym("{")) {
        next()
        val ss = List.newBuilder[Stmt]
        while (!isSym("}")) ss += stmt()
        next()
        // optional trailing ';' after a block, as in the appendix programs
        if (isSym(";")) next()
        Block(ss.result())
      } else {
        val d = lval()
        val s = peek match {
          case TSym(":=", _) => next(); Assign(d, expr())
          case TSym(op @ ("+=" | "*=" | "&&=" | "||=" | "min=" | "max="), _) =>
            next(); IncrAssign(d, op.init, expr())
          case _ => fail("expected assignment operator")
        }
        eatSym(";")
        s
      }
    }

    private def lval(): LVal = {
      val name = ident()
      if (isSym("[")) { next(); LIndex(name, commaList(expr(), "]")(expr())) }
      else LVar(name)
    }

    def tpe(): Type =
      if (isSym("(")) { next(); TupleT(commaList(tpe(), ")")(tpe())) }
      else ident() match {
        case "int"                => IntT
        case "long"               => LongT
        case "double" | "float"   => DoubleT
        case "bool" | "boolean"   => BoolT
        case "string"             => StringT
        case "vector" =>
          eatSym("["); val t = tpe(); eatSym("]"); VectorT(t)
        case "matrix" =>
          eatSym("["); val t = tpe(); eatSym("]"); MatrixT(t)
        case "map" =>
          eatSym("["); val kT = tpe(); eatSym(","); val vT = tpe(); eatSym("]")
          MapT(kT, vT)
        case other =>
          if (isSym("(")) fail(s"unknown type constructor $other")
          else fail(s"unknown type $other")
      }

    // expression precedence: || < && < cmp < add < mul < unary < postfix
    def expr(): Expr = orE()

    private def orE(): Expr = {
      var e = andE()
      while (isSym("||")) { next(); e = BinOp("||", e, andE()) }
      e
    }
    private def andE(): Expr = {
      var e = cmpE()
      while (isSym("&&")) { next(); e = BinOp("&&", e, cmpE()) }
      e
    }
    private def cmpE(): Expr = {
      val e = addE()
      peek match {
        case TSym(op @ ("==" | "!=" | "<" | "<=" | ">" | ">="), _) =>
          next(); BinOp(op, e, addE())
        case _ => e
      }
    }
    private def addE(): Expr = {
      var e = mulE()
      while (isSym("+") || isSym("-")) {
        val op = next().asInstanceOf[TSym].s
        e = BinOp(op, e, mulE())
      }
      e
    }
    private def mulE(): Expr = {
      var e = unaryE()
      while (isSym("*") || isSym("/") || isSym("%")) {
        val op = next().asInstanceOf[TSym].s
        e = BinOp(op, e, unaryE())
      }
      e
    }
    private def unaryE(): Expr =
      if (isSym("-")) { next(); UnOp("-", unaryE()) }
      else if (isSym("!")) { next(); UnOp("!", unaryE()) }
      else postfixE()

    private def postfixE(): Expr = {
      var e = primaryE()
      var done = false
      while (!done) {
        if (isSym(".")) {
          next()
          val f = peek match {
            case TId(s, _)  => k += 1; s
            case TInt(v, _) => k += 1; "_" + v // allow `.1` as `._1`
            case _          => fail("expected field name")
          }
          e = FieldAcc(e, f)
        } else if (isSym("[")) {
          e match {
            case Ref(name) => next(); e = Index(name, commaList(expr(), "]")(expr()))
            case _ => fail("indexing applies to array names only")
          }
        } else done = true
      }
      e
    }

    private def primaryE(): Expr = peek match {
      case TInt(v, _)    => next(); IntLit(v)
      case TDouble(v, _) => next(); DoubleLit(v)
      case TStr(s, _)    => next(); StringLit(s)
      case TId("true", _)  => next(); BoolLit(true)
      case TId("false", _) => next(); BoolLit(false)
      case TId(name, _) if !keywords(name) =>
        next()
        if (isSym("(")) {
          next()
          CallE(name, if (isSym(")")) { next(); Nil } else commaList(expr(), ")")(expr()))
        } else Ref(name)
      case TSym("(", _) =>
        next()
        val e1 = expr()
        if (isSym(",")) TupleE(commaList(e1, ")")(expr()))
        else { eatSym(")"); e1 }
      case t => fail(s"unexpected token $t")
    }
  }

  /** Parse a whole program (a statement sequence). */
  def parse(src: String): List[Stmt] = new P(lex(src)).program()

  /** Parse a single expression (used by tests). */
  def parseExpr(src: String): Expr = new P(lex(src)).expr()
}
