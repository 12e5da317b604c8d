package repro.programs

import repro.local.LocalBackend.{ArrayD, Rec}
import scala.util.Random

/** Deterministic synthetic data for the benchmark programs of §6.
  *
  * Distributions follow the paper's descriptions at laptop scale: uniform
  * doubles, 4-ish-char strings over 1000 distinct values, RGB triples,
  * noisy 2-D points for linear regression, keyed pairs with ~10 duplicates
  * per key, dense-as-sparse square matrices, 10%-filled sparse matrices for
  * matrix factorization, power-law-ish edge lists for PageRank, and the
  * paper's 10×10-grid point clouds for KMeans.
  */
object BenchData {

  private def vec(n: Int)(f: (Random, Long) => Any)(implicit r: Random): ArrayD =
    ArrayD((0L until n.toLong).map(i => List[Any](i) -> f(r, i)).toMap, 1)

  /** Uniform doubles in [0, 1000). */
  def doubles(n: Int, seed: Long = 1): ArrayD = {
    implicit val r: Random = new Random(seed)
    vec(n)((r, _) => r.nextDouble() * 1000.0)
  }

  /** Strings "key0".."key999" (contains the String-Match keys). */
  def strings(n: Int, seed: Long = 2): ArrayD = {
    implicit val r: Random = new Random(seed)
    vec(n)((r, _) => "key" + r.nextInt(1000))
  }

  /** All-equal string dataset (positive case for Equal). */
  def equalStrings(n: Int, value: String = "key7"): ArrayD =
    ArrayD((0L until n.toLong).map(i => List[Any](i) -> (value: Any)).toMap, 1)

  /** RGB triples with 0..255 channels. */
  def rgb(n: Int, seed: Long = 3): ArrayD = {
    implicit val r: Random = new Random(seed)
    vec(n)((r, _) => Rec(Vector(
      "red" -> r.nextInt(256).toLong,
      "green" -> r.nextInt(256).toLong,
      "blue" -> r.nextInt(256).toLong)))
  }

  /** Linear-regression points (x+dx, x-dx) as in the paper. */
  def points(n: Int, seed: Long = 4): ArrayD = {
    implicit val r: Random = new Random(seed)
    vec(n) { (r, _) =>
      val x = r.nextDouble() * 1000.0
      val dx = r.nextDouble() * 10.0
      Rec(Vector("x" -> (x + dx), "y" -> (x - dx)))
    }
  }

  /** (K, A) pairs with ~10 duplicates per key. */
  def keyed(n: Int, seed: Long = 5): ArrayD = {
    implicit val r: Random = new Random(seed)
    val nKeys = math.max(1, n / 10)
    vec(n)((r, _) => Rec(Vector(
      "K" -> r.nextInt(nKeys).toLong,
      "A" -> r.nextDouble() * 10.0)))
  }

  /** Dense d×d matrix stored sparsely, values in [0, 10). */
  def matrix(d: Int, seed: Long = 6): ArrayD = {
    val r = new Random(seed)
    val m = (for (i <- 0L until d.toLong; j <- 0L until d.toLong)
      yield List[Any](i, j) -> (r.nextDouble() * 10.0: Any)).toMap
    ArrayD(m, 2)
  }

  /** Sparse n×m matrix with the given fill fraction, integer values 1..5
    * (the paper's matrix-factorization input).
    */
  def sparseMatrix(n: Int, m: Int, fill: Double = 0.1, seed: Long = 7): ArrayD = {
    val r = new Random(seed)
    val b = Map.newBuilder[List[Any], Any]
    for (i <- 0L until n.toLong; j <- 0L until m.toLong)
      if (r.nextDouble() < fill) b += List[Any](i, j) -> (r.nextInt(5) + 1).toDouble
    ArrayD(b.result(), 2)
  }

  /** n×m matrix with uniform values in [0, 1) (MF's initial factors). */
  def denseRect(n: Int, m: Int, seed: Long = 8): ArrayD = {
    val r = new Random(seed)
    val b = (for (i <- 0L until n.toLong; j <- 0L until m.toLong)
      yield List[Any](i, j) -> (r.nextDouble(): Any)).toMap
    ArrayD(b, 2)
  }

  /** Power-law-ish edge list over nv vertices: skewed sources (an RMAT-like
    * hub structure), uniform destinations; every vertex has at least one
    * outgoing edge so PageRank's degree vector is total.
    */
  def edges(nv: Int, ne: Int, seed: Long = 9): ArrayD = {
    val r = new Random(seed)
    val b = Vector.newBuilder[Rec]
    for (v <- 0 until nv) // guarantee out-degree >= 1
      b += Rec(Vector("src" -> v.toLong, "dst" -> r.nextInt(nv).toLong))
    for (_ <- nv until ne) {
      val src = (nv * math.pow(r.nextDouble(), 2.5)).toLong.min(nv - 1L)
      b += Rec(Vector("src" -> src, "dst" -> r.nextInt(nv).toLong))
    }
    val es = b.result()
    ArrayD(es.zipWithIndex.map { case (e, i) => List[Any](i.toLong) -> (e: Any) }.toMap, 1)
  }

  /** Uniform initial PageRank vector. */
  def ranks(nv: Int): ArrayD =
    ArrayD((0L until nv.toLong).map(i => List[Any](i) -> (1.0 / nv: Any)).toMap, 1)

  /** KMeans points: g×g grid of unit squares with top-left (2i+1, 2j+1),
    * as in the paper's 10×10 grid.
    */
  def kmeansPoints(n: Int, g: Int = 10, seed: Long = 10): ArrayD = {
    implicit val r: Random = new Random(seed)
    vec(n) { (r, _) =>
      val i = r.nextInt(g); val j = r.nextInt(g)
      Rec(Vector(
        "x" -> (i * 2 + 1 + r.nextDouble()),
        "y" -> (j * 2 + 1 + r.nextDouble())))
    }
  }

  /** Initial centroids (2i+1.2, 2j+1.2), one per grid square. */
  def kmeansCentroids(g: Int = 10): ArrayD = {
    val entries = for (i <- 0 until g; j <- 0 until g) yield {
      val idx = (i * g + j).toLong
      List[Any](idx) -> (Rec(Vector(
        "x" -> (i * 2 + 1.2), "y" -> (j * 2 + 1.2))): Any)
    }
    ArrayD(entries.toMap, 1)
  }
}
