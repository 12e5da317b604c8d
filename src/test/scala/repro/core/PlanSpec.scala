package repro.core

import repro.SparkSpec
import repro.core.Comprehension._
import repro.core.Plan._
import repro.programs.Benchmarks
import repro.spark.{SparkBackendSmokeSpec, SparkTestUtil}

/** The comprehension plan shared by both backends: which generator carries
  * which condition, which of them are scan keys, and where the group-by
  * splits the steps.
  */
class PlanSpec extends SparkSpec {

  private def scan(i: String, v: String, arr: String): Qual =
    Gen(List(i, v), CArr(arr))
  private def eq(l: CExpr, r: CExpr): Qual = QPred(CBin("==", l, r))
  private def scans(p: Plan): Map[String, Scan] =
    p.pre.collect { case s: Scan => s.arr -> s }.toMap

  test("PageRank's P[e.src] scan is keyed by e.src") {
    val p = Benchmarks.byName("PageRank")
    val out = Diablo.compile(p.source, p.sigs).collectFirst {
      case Translate.TAssign("OUT", c, true) => Plan.plan(c)
    }.get
    val src = CField(CVar("e"), "src")
    val s = scans(out)
    assert(s("E").conds.isEmpty)
    assert(s("P").keys == List(0 -> src) && s("P").filters.isEmpty)
    assert(s("C").keys == List(0 -> src) && s("C").filters.isEmpty)
    assert(out.group.map(_.kvars.length).contains(1))
    assert(out.post.isEmpty && out.old.map(_.arr) == Some("OUT"))
  }

  test("conditions that are not a key of their scan stay its filters") {
    // one key per index position: the second equality on i is a filter
    val c = Comp(CVar("w"), List(scan("j", "e", "E"), scan("i", "w", "P"),
      eq(CVar("i"), CVar("e")), QPred(CBin(">", CVar("w"), CLit(0L))),
      eq(CVar("j"), CVar("i"))))
    val p = scans(Plan.plan(c))("P")
    assert(p.keys == List(0 -> CVar("e")))
    assert(p.filters == List(CBin(">", CVar("w"), CLit(0L)), CBin("==", CVar("j"), CVar("i"))))
    assert(p.conds.length == 3)
  }

  test("a condition on two generators is carried by the later one") {
    val c = Comp(CTup(List(CVar("x"), CVar("y"))), List(scan("i", "x", "A"),
      QPred(CBin(">", CVar("x"), CLit(1L))), scan("j", "y", "B"),
      QPred(CBin("<", CVar("x"), CVar("y"))), QPred(CBin(">", CState("s"), CLit(0L)))))
    val p = Plan.plan(c)
    assert(p.pre.length == 3) // A, B and the state-only condition
    val s = scans(p)
    assert(s("A").conds == List(CBin(">", CVar("x"), CLit(1L))))
    assert(s("B").conds == List(CBin("<", CVar("x"), CVar("y"))))
    assert(s("B").keys.isEmpty)
    assert(p.pre.last == Cond(CBin(">", CState("s"), CLit(0L))))
  }

  private val sumInto = CTup(List(CVar("k"), CBin("+", CVar("w"), CReduce(MSum, CVar("v")))))
  private val lookupW = QLookup("w", "C", List("k"), DZero)

  test("the group-by splits the steps and its reductions come from the head") {
    val p = Plan.plan(Comp(sumInto,
      List(scan("i", "v", "A"), QGroup(List("k"), List(CVar("i"))), lookupW)))
    assert(p.group == Some(Group(List("k"), List(CVar("i")), List(("_r1", MSum, CVar("v"))))))
    assert(p.head == List(CVar("k"), CBin("+", CVar("w"), CVar("_r1"))))
    assert(p.post.isEmpty && p.old == Some(Lookup("w", "C", List("k"), DZero)))
  }

  test("an update without a group-by reads its old value after every step") {
    val vec = Translate.ArraySig(1)
    val List(Translate.TAssign("V", c, true)) = Diablo.compile(
      "for i = 0, 4 do V[i] += W[i];", Map("V" -> vec, "W" -> vec)): @unchecked
    val p = Plan.plan(c)
    val List(CVar(k), _) = p.head: @unchecked
    assert(p.group.isEmpty && p.pre.last == Let(k, CVar("i")))
    assert(p.old.map(l => (l.arr, l.keyVars)) == Some(("V", List(k))))
  }

  test("a lookup other than the old value at the head's key is rejected") {
    val group = QGroup(List("k"), List(CVar("i")))
    for ((label, quals) <- List(
        ("not last", List(scan("i", "v", "A"), group, lookupW, QPred(CLit(true)))),
        ("not at the head's key", List(scan("i", "v", "A"), group,
          QLookup("w", "C", List("i"), DZero))),
        ("a second lookup", List(scan("i", "v", "A"), group,
          QLookup("u", "C", List("k"), DZero), lookupW))))
      assert(intercept[IllegalArgumentException](Plan.plan(Comp(sumInto, quals)))
        .getMessage.contains("not generated"), label)
  }

  test("a reduction in a post-group qualifier is rejected") {
    val c = Comp(CVar("k"), List(scan("i", "v", "A"),
      QGroup(List("k"), List(CVar("i"))),
      QPred(CBin(">", CReduce(MSum, CVar("v")), CLit(0L)))))
    val e = intercept[IllegalArgumentException](Plan.plan(c))
    assert(e.getMessage.contains("post-group"))
  }

  test("malformed generators and unbound qualifiers are rejected") {
    for ((quals, error) <- List(
        // an array generator binds index and value names
        (List(Gen(List("x"), CArr("A"))), "bad generator"),
        // a condition on a never-bound variable
        (List(scan("i", "x", "A"), QPred(CBin(">", CVar("y"), CLit(0L)))),
          "unbound qualifiers: (y > 0)")))
      assert(intercept[IllegalArgumentException](Plan.plan(Comp(CVar("x"), quals)))
        .getMessage.contains(error), error)
  }

  /** Fails unless every step of `p` reads only variables bound before it. */
  private def assertEvaluable(label: String, p: Plan): Unit = {
    var bound = Set.empty[String]
    def reads(xs: List[CExpr]): Unit = for (x <- xs)
      assert(freeVars(x).subsetOf(bound), s"$label: ${Comprehension.show(x)} in\n${p.show}")
    def run(steps: List[Step]): Unit = steps.foreach {
      case RangeGen(v, lo, hi, conds) => reads(List(lo, hi)); bound += v; reads(conds)
      case s: Scan               => reads(s.keyExprs); bound ++= s.vars; reads(s.conds)
      case Let(v, e)             => reads(List(e)); bound += v
      case Cond(e)               => reads(List(e))
    }
    run(p.pre)
    for (Group(kvars, keys, reds) <- p.group) {
      reads(keys ++ reds.map(_._3))
      bound = (kvars ++ reds.map(_._1)).toSet
    }
    run(p.post)
    for (Lookup(v, _, ks, _) <- p.old) { reads(ks.map(CVar)); bound += v }
    reads(p.head)
  }

  private def comps(ts: List[Translate.TStmt]): List[Comp] = ts.flatMap {
    case Translate.TAssign(_, c, _) => List(c)
    case Translate.TWhileS(c, body) => c :: comps(body)
    case _                          => Nil
  }

  test("every step reads only variables bound before it") {
    val programs = Benchmarks.all.map(p => (p.name, p.source, p.sigs)) ++
      SparkBackendSmokeSpec.shiftedReads.map { case (src, _, _) =>
        (src, src, SparkBackendSmokeSpec.shiftedSigs) }
    for ((name, src, sigs) <- programs;
         code <- List(Translate.translate(Parser.parse(src), sigs), Diablo.compile(src, sigs));
         c <- comps(code))
      assertEvaluable(name, Plan.plan(c))
  }

  private def scanCount(steps: List[Step]): Int = steps.count(_.isInstanceOf[Scan])
  private def kMeansPlans(code: List[Translate.TStmt]): Map[String, Plan] =
    code.collect { case Translate.TAssign(n, c, true) => n -> Plan.plan(c) }.toMap

  test("KMeans reads P[i], C[j] and CN[j] once each, translated and optimized") {
    val p = Benchmarks.byName("KMeans")
    for (code <- List(Translate.translate(Parser.parse(p.source), p.sigs),
                      Diablo.compile(p.source, p.sigs))) {
      // the last `near` assignment is the update; the map keeps it
      val plans = kMeansPlans(code)
      assert(scanCount(plans("near").pre) == 2)
      assert(plans("near").pre.collect { case s: Scan => s.arr } == List("P", "C"))
      assert(scanCount(plans("C2").pre) == 3)
    }
  }

  private def scanAB(second: String, key: CExpr, more: Qual*): Plan =
    Plan.plan(Comp(CTup(List(CVar("x"), CVar("y"))),
      List(scan("i", "x", "A"), scan("j", "y", second), eq(CVar("j"), key)) ++ more))

  test("a scan at the key of an earlier scan of the same array reads its element") {
    assert(scanAB("A", CVar("i")).pre ==
      List(Scan(List("i"), "x", "A", Nil, Nil, Nil), Let("j", CVar("i")), Let("y", CVar("x"))))
    // through a let alias, and through the index an earlier key fixes
    val c = Comp(CVar("z"), List(scan("i", "x", "A"), QLet("m", CVar("i")),
      scan("j", "y", "B"), eq(CVar("j"), CVar("m")),
      scan("k", "z", "A"), eq(CVar("k"), CVar("j"))))
    assert(scanCount(Plan.plan(c).pre) == 2)
  }

  test("a reused scan keeps its filters") {
    val pos = CBin(">", CVar("y"), CLit(0L))
    assert(scanAB("A", CVar("i"), QPred(pos)).pre.drop(1) ==
      List(Let("j", CVar("i")), Let("y", CVar("x")), Cond(pos)))
  }

  test("scans of another array, at another key or a partial key are not reused") {
    assert(scanCount(scanAB("B", CVar("i")).pre) == 2)
    assert(scanCount(scanAB("A", CBin("+", CVar("i"), CLit(1L))).pre) == 2)
    // A[i, _] after A[i, j]: the second scan fixes only its first index
    val m = Comp(CVar("y"), List(Gen(List("i", "j", "x"), CArr("A")),
      Gen(List("k", "l", "y"), CArr("A")), eq(CVar("k"), CVar("i"))))
    assert(scanCount(Plan.plan(m).pre) == 2)
    // B rebinds i, so the key i is not A's first index
    val rebound = Comp(CVar("y"), List(scan("i", "x", "A"), scan("i", "w", "B"),
      scan("j", "y", "A"), eq(CVar("j"), CVar("i"))))
    assert(scanCount(Plan.plan(rebound).pre) == 3)
  }

  test("a scan after the group-by does not reuse one before it") {
    val c = Comp(CTup(List(CVar("k"), CReduce(MSum, CVar("x")), CVar("y"))),
      List(scan("i", "x", "A"), QGroup(List("k"), List(CVar("i"))),
           scan("j", "y", "A"), eq(CVar("j"), CVar("k"))))
    val p = Plan.plan(c)
    assert(scanCount(p.pre) == 1 && scanCount(p.post) == 1)
  }

  test("local and Spark agree on unoptimized target code") {
    val scales = Map("Matrix Addition" -> 4, "Matrix Multiplication" -> 3, "PCA" -> 8,
      "Matrix Factorization" -> 4, "KMeans" -> 20, "PageRank" -> 10)
    for (p <- Benchmarks.all) {
      val code = Translate.translate(Parser.parse(p.source), p.sigs)
      SparkTestUtil.assertAgree(spark, p.name, code, p.data(scales.getOrElse(p.name, 20), 7),
        p.outputs)
    }
  }
}
