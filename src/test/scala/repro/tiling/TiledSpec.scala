package repro.tiling

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.handwritten.HandWritten
import repro.local.LocalBackend.ArrayD
import repro.programs.BenchData
import repro.spark.SparkTestUtil.arrayDF

/** §5 packed (tiled) matrices: pack/unpack round-trips and tiled operators
  * agreeing with their sparse counterparts.
  */
class TiledSpec extends SparkSpec {

  private val t = 4 // tile size
  private def dense(d: Int, seed: Long) =
    arrayDF(spark, BenchData.matrix(d, seed))

  private def asMap(df: org.apache.spark.sql.DataFrame): Map[(Long, Long), Double] =
    df.collect().map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(2))).toMap

  test("pack produces one tile per t x t block") {
    val d = 8
    val tiles = Tiled.pack(dense(d, 1), t).collect()
    assert(tiles.length == (d / t) * (d / t))
    assert(tiles.forall(_.getSeq[Double](2).length == t * t))
  }

  test("unpack(pack(M)) == M for a dense matrix") {
    val m = dense(8, 2)
    val rt = Tiled.unpack(Tiled.pack(m, t), t)
    assert(asMap(rt) == asMap(m))
  }

  test("pack fills absent cells with zero") {
    val sparse = arrayDF(spark, BenchData.sparseMatrix(8, 8, 0.3, 3))
    val rt = asMap(Tiled.unpack(Tiled.pack(sparse, t), t))
    val orig = asMap(sparse)
    for (i <- 0L until 8L; j <- 0L until 8L)
      assert(rt((i, j)) == orig.getOrElse((i, j), 0.0), s"($i,$j)")
  }

  test("tiled addition equals sparse addition") {
    val (m, n) = (dense(8, 4), dense(8, 5))
    val tiled = asMap(Tiled.unpack(Tiled.add(Tiled.pack(m, t), Tiled.pack(n, t)), t))
    val sparse = asMap(HandWritten.matrixAddition(m, n))
    assert(tiled.keySet == sparse.keySet)
    for (k <- sparse.keySet)
      assert(math.abs(tiled(k) - sparse(k)) < 1e-9, k)
  }

  test("tiled multiplication equals sparse multiplication") {
    val (m, n) = (dense(8, 6), dense(8, 7))
    val tiled = asMap(Tiled.unpack(
      Tiled.multiply(Tiled.pack(m, t), Tiled.pack(n, t), t), t))
    val sparse = asMap(HandWritten.matrixMultiplication(m, n))
    for (k <- sparse.keySet)
      assert(math.abs(tiled(k) - sparse(k)) < 1e-6, k)
  }

  test("tiled merge takes new tiles and keeps old ones") {
    val m = Tiled.pack(dense(8, 8), t)
    // an update covering only the top-left tile
    val upd = Tiled.pack(
      arrayDF(spark, ArrayD(
        (for (i <- 0L until t.toLong; j <- 0L until t.toLong)
          yield List[Any](i, j) -> (99.0: Any)).toMap, 2)), t)
    val merged = asMap(Tiled.unpack(Tiled.merge(m, upd), t))
    assert(merged((0L, 0L)) == 99.0)
    assert(merged((t.toLong, t.toLong)) == asMap(Tiled.unpack(m, t))((t.toLong, t.toLong)))
  }

  test("non-divisible dimensions still round-trip on present cells") {
    val m = dense(6, 9) // 6 not divisible by 4
    val rt = asMap(Tiled.unpack(Tiled.pack(m, t), t))
    val orig = asMap(m)
    for (k <- orig.keySet) assert(rt(k) == orig(k), k)
  }
}
