package perfbench

/** A fixed single-threaded job that tracks the host's speed, which on a
  * shared machine drifts by tens of percent over minutes. It is a loop of
  * integer arithmetic and random reads and writes over a 32 KB primitive
  * `long` array: it calls no collection code and allocates nothing while
  * timed, so it shares no JIT profile and no heap state with the code under
  * test. The array fits in a core's first-level cache, so the job measures
  * the core's speed rather than where its memory happens to lie (an 8 MB
  * array made the job's time vary between JVMs more than the benchmark's
  * own times did). The end-to-end times are scaled by `NominalMs / measured`.
  */
object Calibration {

  /** The job's typical time on the 4-core host the benchmark was tuned on. */
  val NominalMs = 12.5

  private val Words = 1 << 12
  private val Steps = 1 << 22

  private val words = Array.tabulate[Long](Words)(i => i * 0x9E3779B97F4A7C15L)

  @volatile private var sink = 0L

  def ms(): Double = {
    val t0 = System.nanoTime
    var x = 0x2545F4914F6CDD1DL
    var acc = 0L
    var i = 0
    while (i < Steps) {
      x ^= x << 13; x ^= x >>> 7; x ^= x << 17
      val j = (x & (Words - 1)).toInt
      acc += words(j)
      words(j) = acc ^ x
      i += 1
    }
    sink = acc
    (System.nanoTime - t0) / 1e6
  }
}
