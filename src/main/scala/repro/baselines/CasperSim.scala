package repro.baselines

import repro.core.Ast._
import repro.core.Comprehension._
import repro.core.{Ast, Diablo, Parser}
import repro.local.LocalBackend
import repro.local.LocalBackend.{ArrayD, Data, Rec, ScalarD}
import repro.programs.Benchmarks.ProgramSpec

/** CASPER-mechanism simulator (Table 1 baseline).
  *
  * CASPER [Ahmad & Cheung, SIGMOD'18] lifts sequential code to Map-Reduce
  * by *searching over program summaries*: candidate IR terms are enumerated
  * and each is checked against the original program's semantics (Casper
  * uses Sketch for synthesis and Dafny for verification). This simulator
  * reproduces that mechanism: it enumerates Map-Reduce pipelines —
  * `[filter p] · map f · reduce ⊕`, `groupBy k · fold ⊕ f`, reductions over
  * grouped results, and arithmetic compositions of reductions — built from
  * expression fragments mined from the source program, and validates each
  * candidate by executing it on sample inputs against the sequential
  * semantics. Per the mechanism:
  *
  *  - simple flat aggregations are found in the cheap early phases;
  *  - programs needing composed aggregates (Average, Equal Frequency)
  *    are found only in the expensive later phases;
  *  - programs whose outputs are not expressible in the single-collection
  *    IR (matrix programs, KMeans) fail type-directed pruning or exhaust
  *    the grammar — the analogue of CASPER's Dafny failures;
  *  - Linear Regression's slope/intercept (nonlinearly nested aggregates)
  *    are out of grammar and burn the whole time budget (the paper's
  *    ">19 hours").
  */
object CasperSim {

  sealed trait Result { def tried: Long }
  final case class Synthesized(tried: Long) extends Result
  final case class Failed(reason: String, tried: Long) extends Result
  final case class Timeout(tried: Long) extends Result

  private val ElemVar = "$x"
  private val monoids: List[Monoid] = List(MSum, MAnd, MOr, MMin, MMax)

  def translate(spec: ProgramSpec, budgetMs: Long = 60000): Result = {
    val deadline = System.nanoTime + budgetMs * 1000000L
    var tried = 0L

    // ---- reference semantics: the sequential program on sample inputs
    val code = Diablo.compile(spec.source, spec.sigs)
    val samples = List(13L, 29L).map { seed =>
      val data = spec.data(30, seed)
      (data, LocalBackend.run(code, data))
    }
    val scalars: Map[String, Any] = samples.head._1.collect {
      case (n, ScalarD(v)) => n -> v
    }

    // ---- the synthesis collection: the first vector input
    val primary: Option[String] = samples.head._1.collectFirst {
      case (n, ArrayD(_, 1)) => n
    }

    // ---- mine expression fragments from the source program
    val frags = mineFragments(Parser.parse(spec.source), scalars.keySet)
    def sampleElems(data: Map[String, Data]): Seq[Any] = primary match {
      case Some(p) => data(p).asInstanceOf[ArrayD].m.values.toSeq
      case None    => Seq.empty
    }
    val typedFrags: List[(CExpr, Any)] = frags.map(toCExpr).flatMap { f =>
      sampleElems(samples.head._1).headOption.flatMap { x =>
        try Some(f -> evalFrag(f, x, scalars)) catch { case _: Exception => None }
      }
    }
    val valFrags  = typedFrags.filterNot(_._2.isInstanceOf[Boolean]).map(_._1)
    val boolFrags = typedFrags.filter(_._2.isInstanceOf[Boolean]).map(_._1)
    val preds: List[Option[CExpr]] = None :: boolFrags.map(Some(_))

    def overBudget: Boolean = System.nanoTime > deadline

    val reds = for (p <- preds; m <- monoids; f <- valFrags) yield (p, m, f)
    val arithOps = List("+", "-", "*", "/")
    /** The compositions of `k` reductions `(pred, monoid, fragment)` and
      * the `k - 1` operators between them, left to right, the first
      * reduction varying slowest.
      */
    def chains(k: Int): Iterator[(List[(Option[CExpr], Monoid, CExpr)], List[String])] =
      if (k == 1) reds.iterator.map(r => (List(r), Nil))
      else for ((rs, ops) <- chains(k - 1); op <- arithOps.iterator; r <- reds.iterator)
        yield (rs :+ r, ops :+ op)

    // ---- candidate evaluators ------------------------------------------
    def reduceCand(pred: Option[CExpr], m: Monoid, f: CExpr,
                   data: Map[String, Data]): Any = {
      var acc: Any = null
      for (x <- sampleElems(data)) {
        val keep = pred.forall(p => evalFrag(p, x, scalars).asInstanceOf[Boolean])
        if (keep) acc = LocalBackend.combine(m, acc, evalFrag(f, x, scalars))
      }
      acc
    }
    def groupCand(key: CExpr, m: Monoid, f: CExpr,
                  data: Map[String, Data]): Map[List[Any], Any] = {
      val out = scala.collection.mutable.HashMap.empty[List[Any], Any]
      for (x <- sampleElems(data)) {
        val k = List(evalFrag(key, x, scalars))
        out(k) = LocalBackend.combine(m, out.getOrElse(k, null), evalFrag(f, x, scalars))
      }
      out.toMap
    }

    def matches(expected: Data, got: Any): Boolean = (expected, got) match {
      case (ScalarD(a), b) => closeTo(a, b)
      case (ArrayD(m, 1), g: Map[_, _]) =>
        val gm = g.asInstanceOf[Map[List[Any], Any]]
        m.keySet == gm.keySet && m.keySet.forall(k => closeTo(m(k), gm(k)))
      case _ => false
    }

    // ---- per-output synthesis ------------------------------------------
    def synthesizeOutput(out: String): Result = {
      val expectedKind = samples.head._2(out)
      // type-directed pruning (the Dafny analogue): record-valued or
      // multi-key outputs are not expressible in the IR
      expectedKind match {
        case ArrayD(m, ka) if ka > 1 =>
          return Failed(s"output $out: $ka-dimensional, not expressible in the MapReduce IR", tried)
        case ArrayD(m, _) if m.values.headOption.exists(_.isInstanceOf[Rec]) =>
          return Failed(s"output $out: record-valued, no type-correct candidate", tried)
        case ScalarD(v: Rec) =>
          return Failed(s"output $out: record-valued, no type-correct candidate", tried)
        case _ => ()
      }
      if (primary.isEmpty)
        return Failed(s"no input collection for the MapReduce IR", tried)

      def validate(eval: Map[String, Data] => Any): Boolean = {
        tried += 1
        samples.forall { case (data, ref) =>
          try matches(ref(out), eval(data)) catch { case _: Exception => false }
        }
      }

      val isMapOutput = expectedKind.isInstanceOf[ArrayD]

      if (isMapOutput) {
        // map outputs: groupBy · fold pipelines only (type-directed search)
        for (k <- valFrags; m <- monoids; f <- valFrags) {
          if ((tried & 1023) == 0 && overBudget) return Timeout(tried)
          if (validate(groupCand(k, m, f, _))) return Synthesized(tried)
        }
        return Failed(s"output $out: grammar exhausted", tried)
      }

      // phase A: [filter] · map · reduce
      for (p <- preds; m <- monoids; f <- valFrags ++ boolFrags) {
        if ((tried & 1023) == 0 && overBudget) return Timeout(tried)
        if (validate(reduceCand(p, m, f, _))) return Synthesized(tried)
      }
      // phase C: reduce over grouped values (two-stage pipelines)
      for (k <- valFrags; m1 <- monoids; f <- valFrags; m2 <- monoids) {
        if ((tried & 1023) == 0 && overBudget) return Timeout(tried)
        if (validate(d => {
          val g = groupCand(k, m1, f, d)
          g.values.foldLeft(null: Any)((a, v) => LocalBackend.combine(m2, a, v))
        })) return Synthesized(tried)
      }
      // phase C2: comparison of two reductions over the same grouping
      // (e.g. Equal Frequency: min count == max count)
      val cmpOps = List("==", "<", "<=")
      for (k <- valFrags; m1 <- monoids; f <- valFrags;
           m2a <- monoids; m2b <- monoids; cmp <- cmpOps) {
        if ((tried & 1023) == 0 && overBudget) return Timeout(tried)
        if (validate(d => {
          val g = groupCand(k, m1, f, d).values
          val a = g.foldLeft(null: Any)((x, v) => LocalBackend.combine(m2a, x, v))
          val b = g.foldLeft(null: Any)((x, v) => LocalBackend.combine(m2b, x, v))
          cmp match {
            case "==" => LocalBackend.equalAny(a, b)
            case "<"  => LocalBackend.compareAny(a, b) < 0
            case "<=" => LocalBackend.compareAny(a, b) <= 0
          }
        })) return Synthesized(tried)
      }
      // phases D, E and F: arithmetic compositions of two, three and four
      // reductions; four is the budget burner for programs whose outputs
      // (e.g. regression coefficients) are out of grammar
      for (k <- 2 to 4; (rs, ops) <- chains(k)) {
        if ((tried & 1023) == 0 && overBudget) return Timeout(tried)
        if (validate(d => {
          val vs = rs.map { case (p, m, f) => reduceCand(p, m, f, d) }
          def ar(i: Int, a: Any, b: Any) = LocalBackend.arith(ops(i), a, b)
          (vs: @unchecked) match {
            case List(r1, r2)         => ar(0, r1, r2)
            case List(r1, r2, r3)     => ar(1, ar(0, r1, r2), r3)
            case List(r1, r2, r3, r4) => ar(1, ar(0, r1, r2), ar(2, r3, r4))
          }
        })) return Synthesized(tried)
      }
      Failed(s"output $out: grammar exhausted", tried)
    }

    val it = spec.outputs.iterator
    while (it.hasNext) {
      synthesizeOutput(it.next()) match {
        case _: Synthesized => ()
        case f: Failed      => return Failed(f.reason, tried)
        case _: Timeout     => return Timeout(tried)
      }
    }
    Synthesized(tried)
  }

  private def closeTo(a: Any, b: Any): Boolean = (a, b) match {
    case (x: Double, y: Double) => math.abs(x - y) <= 1e-6 * (1.0 + math.abs(x))
    case (x: Double, y: Long)   => closeTo(x, y.toDouble)
    case (x: Long, y: Double)   => closeTo(x.toDouble, y)
    case _                      => a == b
  }

  // ------------------------------------------------ fragment mining

  /** Sub-expressions of the program with for-in element variables renamed
    * to the canonical element variable; only closed fragments (no array
    * reads, free variables ⊆ {element} ∪ input scalars) are kept.
    */
  private def mineFragments(prog: List[Stmt], scalarNames: Set[String]): List[Expr] = {
    val out = scala.collection.mutable.LinkedHashSet.empty[Expr]
    def subexprs(e: Expr): Unit = { out += e; Ast.children(e).foreach(subexprs) }
    def rename(e: Expr, v: String): Expr = e match {
      case Ref(`v`) => Ref(ElemVar)
      case _        => Ast.mapChildren(e)(rename(_, v))
    }
    def dest(d: LVal, elem: Option[String]): Unit = d match {
      case LIndex(_, idx) => idx.foreach(i => subexprs(ren(i, elem)))
      case _              => ()
    }
    def walk(s: Stmt, elem: Option[String]): Unit = s match {
      case Decl(_, _, init)      => subexprs(ren(init, elem))
      case Assign(d, e)          => dest(d, elem); subexprs(ren(e, elem))
      case IncrAssign(d, _, e)   => dest(d, elem); subexprs(ren(e, elem))
      case ForRange(_, lo, hi, b) => subexprs(ren(lo, elem)); subexprs(ren(hi, elem)); walk(b, elem)
      case ForIn(v, _, b)        => walk(b, Some(v))
      case While(c, b)           => subexprs(ren(c, elem)); walk(b, elem)
      case If(c, t, e)           => subexprs(ren(c, elem)); walk(t, elem); e.foreach(walk(_, elem))
      case Block(ss)             => ss.foreach(walk(_, elem))
    }
    def ren(e: Expr, elem: Option[String]): Expr = elem.map(rename(e, _)).getOrElse(e)
    prog.foreach(walk(_, None))
    out += Ref(ElemVar)
    out += IntLit(1)
    def closed(e: Expr): Boolean = e match {
      case Index(_, _) => false
      case Ref(n)      => n == ElemVar || scalarNames(n)
      case _           => Ast.children(e).forall(closed)
    }
    out.toList.filter(closed).distinct
  }

  /** A closed fragment as a comprehension expression over the element
    * variable and the input scalars.
    */
  private def toCExpr(e: Expr): CExpr = e match {
    case Ref(ElemVar)   => CVar(ElemVar)
    case Ref(n)         => CState(n)
    case IntLit(v)      => CLit(v)
    case DoubleLit(v)   => CLit(v)
    case BoolLit(v)     => CLit(v)
    case StringLit(v)   => CLit(v)
    case FieldAcc(b, f) => CField(toCExpr(b), f)
    case UnOp(op, b)    => CUn(op, toCExpr(b))
    case BinOp(op, l, r) => CBin(op, toCExpr(l), toCExpr(r))
    case TupleE(es)     => CTup(es.map(toCExpr))
    case CallE(f, as)   => call(f, as.map(toCExpr))
    case Index(_, _)    => throw new IllegalArgumentException(s"not a closed fragment: $e")
  }

  /** Evaluate a fragment on one collection element. */
  private def evalFrag(e: CExpr, x: Any, scalars: Map[String, Any]): Any =
    LocalBackend.evalExpr(e, Map(ElemVar -> x), scalars)
}
