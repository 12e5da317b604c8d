package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll
import repro.core.Translate._
import repro.local.LocalBackend
import repro.local.LocalBackend._

/** ScalaCheck properties: DIABLO-translated programs agree with brute-force
  * loop interpretation on random inputs (the semantics-preservation claim
  * of Theorem A.1, checked empirically on the local backend).
  */
object TranslationProperties extends Properties("Translation") {

  private def vecOf(vs: Seq[Any]): ArrayD =
    ArrayD(vs.zipWithIndex.map { case (v, i) => List[Any](i.toLong) -> v }.toMap, 1)

  private val doubles = Gen.nonEmptyListOf(Gen.choose(-100.0, 100.0))
  private val longs   = Gen.nonEmptyListOf(Gen.choose(0L, 20L))

  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-6 * (1.0 + math.abs(a))

  property("sum += v equals the fold") = forAll(doubles) { vs =>
    val code = Diablo.compile(
      "var s: double = 0.0; for v in V do s += v;", Map("V" -> ArraySig(1)))
    val st = LocalBackend.run(code, Map("V" -> vecOf(vs)))
    close(st("s").asInstanceOf[ScalarD].v.asInstanceOf[Double], vs.sum)
  }

  property("group-by count equals groupBy size") = forAll(longs) { ks =>
    val code = Diablo.compile(
      "var C: map[long,long] = map(); for v in V do C[v] += 1;",
      Map("V" -> ArraySig(1)))
    val st = LocalBackend.run(code, Map("V" -> vecOf(ks)))
    val got = st("C").asInstanceOf[ArrayD].m
    val expected = ks.groupBy(identity).map { case (k, g) =>
      (List[Any](k), g.size.toLong: Any) }
    got == expected
  }

  property("min= equals the minimum") = forAll(doubles) { vs =>
    val code = Diablo.compile(
      "var m: double = 1.0e300; for v in V do m min= v;", Map("V" -> ArraySig(1)))
    val st = LocalBackend.run(code, Map("V" -> vecOf(vs)))
    st("m").asInstanceOf[ScalarD].v == vs.min
  }

  property("conditional count equals the filter count") = forAll(doubles) { vs =>
    val code = Diablo.compile(
      "var c: long = 0; for v in V do if (v < 0.0) c += 1;",
      Map("V" -> ArraySig(1)))
    val st = LocalBackend.run(code, Map("V" -> vecOf(vs)))
    st("c").asInstanceOf[ScalarD].v == vs.count(_ < 0.0).toLong
  }

  property("vector add via indexes equals zip") =
    forAll(Gen.choose(1, 30), Gen.long) { (n, seed) =>
      val r = new scala.util.Random(seed)
      val a = Vector.fill(n)(r.nextDouble())
      val b = Vector.fill(n)(r.nextDouble())
      val code = Diablo.compile(
        s"for i = 0, ${n - 1} do C[i] := A[i] + B[i];",
        Map("A" -> ArraySig(1), "B" -> ArraySig(1), "C" -> ArraySig(1)))
      val st = LocalBackend.run(code, Map(
        "A" -> vecOf(a), "B" -> vecOf(b), "C" -> ArrayD(Map.empty, 1)))
      val got = st("C").asInstanceOf[ArrayD].m
      (0 until n).forall(i =>
        close(got(List(i.toLong)).asInstanceOf[Double], a(i) + b(i)))
    }

  property("V[i] += W[i+1] * W[i] equals the loop") =
    forAll(Gen.choose(1, 30), Gen.long) { (n, seed) =>
      val r = new scala.util.Random(seed)
      val v = Vector.fill(n)(r.nextDouble())
      val w = Vector.fill(n + 1)(r.nextDouble())
      val code = Diablo.compile(s"for i = 0, ${n - 1} do V[i] += W[i+1] * W[i];",
        Map("V" -> ArraySig(1), "W" -> ArraySig(1)))
      val got = LocalBackend.run(code, Map("V" -> vecOf(v), "W" -> vecOf(w)))("V")
        .asInstanceOf[ArrayD].m
      got.size == n && (0 until n).forall(i =>
        close(got(List(i.toLong)).asInstanceOf[Double], v(i) + w(i + 1) * w(i)))
    }

  property("parallel and sequential agree on group-by sums") =
    forAll(Gen.nonEmptyListOf(Gen.zip(Gen.choose(0L, 5L), Gen.choose(-10.0, 10.0)))) { kvs =>
      val recs = kvs.map { case (k, a) => Rec(Vector("K" -> k, "A" -> a)): Any }
      val code = Diablo.compile(
        "var C: map[long,double] = map(); for v in V do C[v.K] += v.A;",
        Map("V" -> ArraySig(1)))
      val seq = LocalBackend.run(code, Map("V" -> vecOf(recs)), par = false)
      val par = LocalBackend.run(code, Map("V" -> vecOf(recs)), par = true)
      val (sm, pm) = (seq("C").asInstanceOf[ArrayD].m, par("C").asInstanceOf[ArrayD].m)
      sm.keySet == pm.keySet && sm.keySet.forall(k =>
        close(sm(k).asInstanceOf[Double], pm(k).asInstanceOf[Double]))
    }

  property("matrix multiplication equals brute force") =
    forAll(Gen.choose(1, 6), Gen.long) { (d, seed) =>
      val r = new scala.util.Random(seed)
      def mat() = (for (i <- 0L until d.toLong; j <- 0L until d.toLong)
        yield List[Any](i, j) -> (r.nextDouble(): Any)).toMap
      val (m, n) = (mat(), mat())
      val p = repro.programs.Benchmarks.matrixMultiplication
      val code = Diablo.compile(p.source, p.sigs)
      val st = LocalBackend.run(code, Map(
        "M" -> ArrayD(m, 2), "N" -> ArrayD(n, 2), "n" -> ScalarD(d.toLong)))
      val got = st("R").asInstanceOf[ArrayD].m
      (0L until d.toLong).forall(i => (0L until d.toLong).forall { j =>
        val e = (0L until d.toLong).map(k =>
          m(List(i, k)).asInstanceOf[Double] * n(List(k, j)).asInstanceOf[Double]).sum
        close(got(List(i, j)).asInstanceOf[Double], e)
      })
    }

  property("incremental update preserves untouched keys") =
    forAll(longs) { ks =>
      val init = ArrayD(Map(List[Any](999L) -> (42L: Any)), 1)
      val code = Diablo.compile(
        "for v in V do C[v] += 1;",
        Map("V" -> ArraySig(1), "C" -> ArraySig(1)))
      val st = LocalBackend.run(code, Map("V" -> vecOf(ks), "C" -> init))
      st("C").asInstanceOf[ArrayD].m.get(List(999L)).contains(42L)
    }
}
