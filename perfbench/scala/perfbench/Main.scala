package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import java.time.Instant
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Analysis, Diablo, Optimize, Parser, Translate}
import repro.core.Translate.{TAssign, TInit, TStmt, TWhileS}
import repro.local.LocalBackend
import repro.local.LocalBackend.{ArrayD, Data, ScalarD}
import repro.spark.SparkBackend
import repro.spark.SparkBackend.{SArr, SScalar, SValue}
import scala.collection.mutable

/** The DIABLO benchmark: one JVM runs one workload, closed loop, in two
  * phases. The JVM phase, before Spark is started, times `Diablo.compile`
  * and `LocalBackend.run` (sequential; parallel with tracing only). The
  * Spark phase times `SparkBackend.run` plus forcing the declared outputs,
  * each followed by the hand-written program on the same inputs. The JVM
  * phase visits every program in turn, round after round, for `--seconds`;
  * the Spark phase makes one round. Every output is checked against the
  * hand-written reference.
  *
  * With `--trace 1` every untraced visit of a program is followed by a
  * traced one, which times the compiler stages and each top-level target
  * statement and reads the JVM's allocation and GC counters and Spark's
  * listener and plan counts.
  *
  * usage: Main --workload W --seed N --seconds S --trace 0|1 --out DIR
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        out: String)

  // Per visit of a program in the JVM phase, compiling repeats for at least
  // 50 ms and each local mode for at least 50 ms. The JVM phase's times
  // change by up to 2x from one visit to the next, so visits are short and
  // many. Its warm-up visits every program in turn JvmWarmRounds times,
  // compiling for 150 ms and running each local mode once per visit, so that
  // the JIT sees every program before it settles. Spark is warmed with one
  // run per program, and the Spark phase's visit runs Spark and the
  // hand-written program once. The parallel local mode runs only with
  // tracing: its time is a per-layer metric.
  val CompileBatchNs = 50e6
  val WarmCompileNs = 150e6
  val JvmWarmRounds = 3
  val LocalBatchNs = 50e6
  val CompileMinReps = 20
  // Compile times are reported at their 10th percentile, not their median:
  // within one run they switch between two levels about 2x apart (a JIT,
  // heap-layout or host effect outside the compiler), and the share of slow
  // samples varied from run to run, which moved the median by far more than
  // the bound. The fast level repeats from run to run.
  val CompileQuantile = 0.1
  val CalibrationReps = 2
  val ShufflePartitions = 64

  def main(args: Array[String]): Unit = {
    val status =
      try { new Run(parse(args)).apply(); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
    System.exit(status)
  }

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") =>
      k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(
      s"missing --$k; usage: --workload W --seed N --seconds S --trace 0|1 --out DIR"))
    val workload = need("workload")
    require(Workloads.byName.contains(workload),
      s"unknown workload $workload; one of ${Workloads.byName.keys.mkString(", ")}")
    Opts(workload, need("seed").toLong, need("seconds").toInt, need("trace") == "1",
      need("out"))
  }

  def epochNs(): Long = {
    val i = Instant.now()
    i.getEpochSecond * 1000000000L + i.getNano
  }

  def startSpark(localDir: String): SparkSession = {
    val nproc = Runtime.getRuntime.availableProcessors
    SparkSession.builder
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", new File(localDir, "warehouse").getPath)
      .getOrCreate()
  }
}

/** A program compiled, with its generated inputs: what the compiler and
  * the local backend take.
  */
final class Prog(val c: Case, val data: Map[String, Data], val code: List[TStmt]) {
  def name: String = c.name
  def src: String = c.spec.source
  val shown: String = code.map(Translate.showStmt).mkString("\n")
  val ir: IrCounts = IrCounts.of(code)
}

/** A program ready for Spark: its inputs as cached DataFrames and its
  * expected outputs.
  */
final class SparkProg(val p: Prog, val dfs: Map[String, DataFrame], val expected: Reference.Outputs) {
  def name: String = p.name
  val sparkState: Map[String, SValue] = p.data.map {
    case (n, ScalarD(v))    => n -> SScalar(v)
    case (n, ArrayD(_, ka)) => n -> SArr(Some(dfs(n)), ka)
  }
}

final class Run(opts: Main.Opts) {
  import Main._

  private val cases = Workloads.byName(opts.workload)
  private val programs = cases.map(_.name)
  private val nproc = Runtime.getRuntime.availableProcessors
  private val launchNs = sys.props.get("perfbench.launchEpochNs").map(_.toLong)
    .getOrElse(ManagementFactory.getRuntimeMXBean.getStartTime * 1000000L)

  private val untraced = new Samples  // end-to-end timings
  private val traced = new Samples    // per-layer timings and counts
  private val tracer = new Tracer
  private var attempted = 0L
  private var failed = 0L
  private var gcForcedS = 0.0
  private val setupPhases = mutable.LinkedHashMap.empty[String, Double]  // s
  private val rounds = mutable.LinkedHashMap.empty[String, Int]
  private val failures = mutable.LinkedHashMap.empty[String, String]
  // Local results of the JVM phase, checked once the reference exists.
  private val unchecked = mutable.ArrayBuffer.empty[(Prog, String, Map[String, Data])]

  private var spark: SparkSession = _
  private var probe: SparkProbe = _

  def apply(): Unit =
    try measure()
    finally if (spark != null) spark.stop()

  private def log(msg: String): Unit = Console.err.println(s"[perfbench] $msg")

  // ------------------------------------------------------------- set-up

  /** Runs one phase of the set-up and records its wall time. */
  private def phase[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime
    try body
    finally setupPhases(name) = (System.nanoTime - t0) / 1e9
  }

  /** Times `body` in ms as a per-layer sample of `c`. */
  private def timedMs[A](metric: String, c: Case)(body: => A): A = {
    val t0 = System.nanoTime
    val a = body
    traced.add(metric, c.name, (System.nanoTime - t0) / 1e6)
    a
  }

  /** Generates the inputs, and compiles twice requiring the same target
    * code both times.
    */
  private def prepare(c: Case): Prog = {
    val data = timedMs("data.gen_ms", c)(c.spec.data(c.scale, opts.seed))
    val a = new Prog(c, data, Diablo.compile(c.spec.source, c.spec.sigs))
    val b = new Prog(c, data, Diablo.compile(c.spec.source, c.spec.sigs))
    attempted += 1
    if (a.shown != b.shown || a.ir != b.ir) fail(a.name, "compile", "not deterministic")
    a
  }

  /** Caches the array inputs as DataFrames and computes the reference. */
  private def toSpark(p: Prog): SparkProg = {
    val dfs = timedMs("bridge.to_df_ms", p.c) {
      val dfs = p.data.collect { case (n, a: ArrayD) =>
        n -> SparkBackend.arrayToDF(spark, a).cache() }
      dfs.values.foreach(_.count())
      dfs
    }
    new SparkProg(p, dfs, Reference.expected(p.name, reference(p, dfs)))
  }

  private def reference(p: Prog, dfs: Map[String, DataFrame]): Reference.Inputs =
    Reference.Inputs(dfs, p.data.collect { case (n, ScalarD(v)) => n -> v })

  // ---------------------------------------------------------- execution

  private def fail(program: String, backend: String, why: String): Unit = {
    failed += 1
    val key = s"$program / $backend"
    if (!failures.contains(key)) {
      failures(key) = why
      log(s"FAILED $key: $why")
    }
  }

  /** Runs `body` and returns its wall time in ms with its result, or None
    * if it threw (counted as failed).
    */
  private def attempt[S](program: String, backend: String)(body: => S): Option[(Double, S)] = {
    attempted += 1
    val t0 = System.nanoTime
    try {
      val st = body
      Some(((System.nanoTime - t0) / 1e6, st))
    } catch {
      case e: Exception =>
        val msg = String.valueOf(e.getMessage).linesIterator.nextOption().getOrElse("")
        fail(program, backend, s"${e.getClass.getSimpleName}: $msg")
        None
    }
  }

  private def check(program: String, backend: String, expected: Reference.Outputs,
                    out: String => Option[Any]): Unit =
    Reference.mismatch(expected, out).foreach(fail(program, backend, _))

  private def localOut(st: Map[String, Data])(n: String): Option[Any] = st.get(n).map {
    case ScalarD(v)   => v
    case ArrayD(m, _) => m
  }

  private def sparkOut(st: Map[String, SValue])(n: String): Option[Any] = st.get(n).map {
    case SScalar(v)           => v
    case SArr(Some(df), ka)   => SparkBackend.dfToArray(df, ka).m
    case SArr(None, _)        => Map.empty
  }

  /** Forces every declared array output (scalars already live on the driver). */
  private def force(p: Prog, st: Map[String, SValue]): Map[String, SValue] = {
    p.c.spec.outputs.foreach(o => st.get(o) match {
      case Some(SArr(Some(df), _)) => df.count()
      case _ => ()
    })
    st
  }

  /** Runs the local backend; the result is checked later (see `unchecked`). */
  private def local(p: Prog, backend: String)(body: => Map[String, Data]): Option[Double] =
    attempt(p.name, backend)(body).map { case (ms, st) =>
      unchecked += ((p, backend, st))
      ms
    }

  private def runLocal(p: Prog, par: Boolean): Option[Double] =
    local(p, if (par) "local.par" else "local.seq")(LocalBackend.run(p.code, p.data, par))

  private def runSpark(sp: SparkProg): Option[Double] =
    attempt(sp.name, "spark")(force(sp.p, SparkBackend.run(sp.p.code, sp.sparkState, spark)))
      .map { case (ms, st) =>
        check(sp.name, "spark", sp.expected, sparkOut(st))
        ms
      }

  /** Repeats `once` until it has run `minReps` times and for `minNs` in
    * all, or until it fails; returns the times.
    */
  private def batch(minNs: Double, minReps: Int = 1)(once: => Option[Double]): Seq[Double] = {
    val start = System.nanoTime
    val out = mutable.ArrayBuffer.empty[Double]
    var ok = true
    while (ok && (out.length < minReps || System.nanoTime - start < minNs))
      once match {
        case Some(t) => out += t
        case None    => ok = false
      }
    out.toSeq
  }

  /** Compiles repeatedly, one sample (µs) per call; the batch is one
    * operation, failed if the last output differs from the first compile.
    */
  private def compileBatch(p: Prog, minNs: Double): Seq[Double] = {
    attempted += 1
    var last: List[TStmt] = p.code
    val us = batch(minNs, CompileMinReps) {
      val t0 = System.nanoTime
      last = Diablo.compile(p.src, p.c.spec.sigs)
      Some((System.nanoTime - t0) / 1e3)
    }
    if (last.map(Translate.showStmt).mkString("\n") != p.shown)
      fail(p.name, "compile", "output differs from the first compile")
    us
  }

  private def forceGc(): Unit = {
    val t0 = System.nanoTime
    System.gc()
    gcForcedS += (System.nanoTime - t0) / 1e9
  }

  /** One untraced visit of a program in the JVM phase: calibration,
    * compile, local seq, local par (with tracing only).
    */
  private def jvmVisit(p: Prog): Unit = {
    forceGc()
    (1 to CalibrationReps).foreach(_ => untraced.add("calibration", "", Calibration.ms()))
    compileBatch(p, CompileBatchNs).foreach(untraced.add("compile_us", p.name, _))
    batch(LocalBatchNs)(runLocal(p, par = false)).foreach(untraced.add("local.seq", p.name, _))
    if (opts.trace)
      batch(LocalBatchNs)(runLocal(p, par = true)).foreach(untraced.add("local.par", p.name, _))
  }

  /** One untraced visit of a program in the Spark phase: the generated
    * code, then the hand-written program on the same inputs.
    */
  private def sparkVisit(sp: SparkProg): Unit = {
    forceGc()
    runSpark(sp).foreach(untraced.add("spark", sp.name, _))
    val t0 = System.nanoTime
    Reference.expected(sp.name, reference(sp.p, sp.dfs))
    untraced.add("hand.spark", sp.name, (System.nanoTime - t0) / 1e6)
  }

  /** Visits every item in turn, round after round, until `seconds` have
    * passed, at least one round; records the number of rounds.
    */
  private def loop[A](name: String, items: List[A], seconds: Int)(visit: A => Unit): Unit = {
    val deadline = System.nanoTime + seconds * 1000000000L
    def due = System.nanoTime < deadline
    var n = 0
    while (n == 0 || due) {
      items.foreach(a => if (n == 0 || due) visit(a))
      n += 1
    }
    rounds(name) = n
  }

  // ------------------------------------------------------------- tracing

  /** Names a statement assigns (inside while bodies too). */
  private def assigned(t: TStmt): List[String] = t match {
    case TInit(n, _)       => List(n)
    case TAssign(n, _, _)  => List(n)
    case TWhileS(_, body)  => body.flatMap(assigned)
  }

  private def rowsOf(t: TStmt, st: Map[String, Data]): Long =
    assigned(t).distinct.map(n => st.get(n) match {
      case Some(ArrayD(m, _)) => m.size.toLong
      case Some(ScalarD(_))   => 1L
      case None               => 0L
    }).sum

  private def tracedLocal(p: Prog, par: Boolean): Unit = {
    val backend = if (par) "local.par" else "local.seq"
    val gc0 = Jvm.gcMs()
    val alloc0 = Jvm.allocatedBytes()
    var rows = 0L
    val ms = local(p, backend)(tracer(backend, p.name) {
      p.code.zipWithIndex.foldLeft(p.data) { case (st, (s, i)) =>
        val next = tracer(s"$backend.stmt", p.name, i)(LocalBackend.run(List(s), st, par))
        rows += rowsOf(s, next)
        next
      }
    })
    traced.add("local.gc_ms", p.name, (Jvm.gcMs() - gc0).toDouble)
    ms.foreach(traced.add(backend, p.name, _))
    if (!par) {
      traced.add("local.seq.alloc_mb", p.name, (Jvm.allocatedBytes() - alloc0) / 1e6)
      traced.add("local.rows_out", p.name, rows.toDouble)
    }
  }

  private def tracedSpark(sp: SparkProg): Unit = {
    val p = sp.p
    val before = probe.snapshot()
    attempt(p.name, "spark")(tracer("spark", p.name) {
      force(p, p.code.zipWithIndex.foldLeft(sp.sparkState) { case (st, (s, i)) =>
        tracer("spark.stmt", p.name, i)(SparkBackend.run(List(s), st, spark))
      })
    }).foreach { case (ms, st) =>
      // The listener and plan counts stop before the outputs are collected
      // for the check, so they hold the program's own work only.
      recordSpark(p, ms, probe.snapshot() - before)
      check(p.name, "spark", sp.expected, sparkOut(st))
    }
  }

  private def recordSpark(p: Prog, ms: Double, d: SparkCounts): Unit = {
    traced.add("spark", p.name, ms)
    val counts = List(
      "spark.jobs" -> d.jobs.toDouble, "spark.stages" -> d.stages.toDouble,
      "spark.tasks" -> d.tasks.toDouble, "spark.task_busy_ms" -> d.taskBusyMs.toDouble,
      "spark.shuffle_write_mb" -> d.shuffleWriteBytes / 1e6,
      "spark.shuffle_read_mb" -> d.shuffleReadBytes / 1e6,
      "spark.exchanges" -> d.exchanges.toDouble, "spark.joins.smj" -> d.smj.toDouble,
      "spark.joins.shj" -> d.shj.toDouble, "spark.joins.bhj" -> d.bhj.toDouble,
      "spark.joins.nested_loop" -> d.nestedLoop.toDouble,
      "spark.joins.cartesian" -> d.cartesian.toDouble)
    counts.foreach { case (k, v) => traced.add(k, p.name, v) }
  }

  /** One traced visit in the JVM phase: compiler stages, then each local
    * mode statement by statement.
    */
  private def tracedJvm(p: Prog): Unit = {
    forceGc()
    val sigs = p.c.spec.sigs
    def stage[A](name: String)(body: => A): A = {
      val t0 = System.nanoTime
      val a = body
      traced.add(name, p.name, (System.nanoTime - t0) / 1e3)
      a
    }
    batch(CompileBatchNs, CompileMinReps) {
      val t0 = System.nanoTime
      val ast = stage("core.parse")(Parser.parse(p.src))
      stage("core.check")(Analysis.check(ast))
      stage("core.optimize")(Optimize.optimize(stage("core.translate")(Translate.translate(ast, sigs))))
      Some((System.nanoTime - t0) / 1e3)
    }
    tracedLocal(p, par = false)
    tracedLocal(p, par = true)
  }

  // ------------------------------------------------------------ the run

  private def measure(): Unit = {
    // The JVM phase comes first, before any Spark class is loaded: Spark's
    // classes and its own hot code change what the JIT compiles for the
    // compiler and the local backend, and made their times vary by up to
    // 2x from run to run. The set-up is every step outside the two timed
    // loops.
    setupPhases("launch") = (epochNs() - launchNs) / 1e9
    val progs = phase("data_compile")(cases.map(prepare))
    phase("jvm_warm")(for (_ <- 1 to JvmWarmRounds; p <- progs) {
      compileBatch(p, WarmCompileNs)
      runLocal(p, par = false)
      if (opts.trace) runLocal(p, par = true)
    })
    Calibration.ms()
    loop("jvm", progs, opts.seconds) { p =>
      jvmVisit(p)
      if (opts.trace) tracedJvm(p)
    }

    spark = phase("spark_start")(startSpark(new File(opts.out, "run/spark-local").getPath))
    val sprogs = phase("inputs_reference")(progs.map(toSpark))
    val expected = sprogs.map(sp => sp.name -> sp.expected).toMap
    for ((p, backend, st) <- unchecked) check(p.name, backend, expected(p.name), localOut(st))
    unchecked.clear()
    phase("spark_warm")(sprogs.foreach(runSpark))
    if (opts.trace) probe = new SparkProbe(spark).install()
    loop("spark", sprogs, seconds = 0) { sp =>
      sparkVisit(sp)
      if (opts.trace) tracedSpark(sp)
    }
    val setupS = setupPhases.values.sum
    log(f"set-up $setupS%.2f s: " + setupPhases.map { case (k, v) => f"$k $v%.2f" }.mkString(", "))
    log(s"rounds ${rounds.mkString(", ")}; $failed of $attempted failed; " +
      f"forced GC $gcForcedS%.2f s")
    logPrograms()

    val metrics =
      if (opts.trace) perLayer(progs) else endToEnd(setupS)
    val env = environment(setupS)
    println("# env " + Json(env))
    if (opts.trace) writeTrace(progs, env)
    println(Json(mutable.LinkedHashMap(
      "correct" -> (failed == 0),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> metrics.map { case (k, (v, unit)) =>
        k -> mutable.LinkedHashMap("value" -> v, "unit" -> unit) })))
  }

  /** One row per program: median untraced time per layer (sample count). */
  private def logPrograms(): Unit = {
    val cols = List("compile_us", "local.seq", "local.par", "spark", "hand.spark")
    log(f"${"program"}%-22s" + cols.map(c => f"$c%18s").mkString)
    for (p <- programs) log(f"$p%-22s" + cols.map { c =>
      val xs = untraced.get(c, p)
      if (xs.isEmpty) f"${"-"}%18s" else f"${Stats.median(xs)}%12.2f (${xs.size}%3d)"
    }.mkString)
  }

  /** The host's speed relative to the nominal calibration time; scales the
    * compile time.
    */
  private def hostFactor: Double = Calibration.NominalMs / untraced.median("calibration", "")

  private def endToEnd(setupS: Double): mutable.LinkedHashMap[String, (Double, String)] =
    mutable.LinkedHashMap(
      "setup_s" -> (setupS, "s"),
      "spark_vs_hand_geo" -> (sparkVsHand, "ratio"),
      "ops_ok_frac" -> (1.0 - failed.toDouble / attempted, "fraction"))

  /** Geometric mean over programs of the generated code's Spark time over
    * the hand-written program's, timed one after the other (Figure 3).
    */
  private def sparkVsHand: Double =
    Stats.geomean(programs.filter(p => untraced.get("spark", p).nonEmpty)
      .map(p => untraced.median("spark", p) / untraced.median("hand.spark", p)))

  /** Wall times as measured, before scaling to the nominal host speed
    * (the parallel local time with tracing only).
    */
  private def rawTimes: Map[String, Double] = collection.immutable.ListMap(
    "calibration_ms" -> untraced.median("calibration", ""),
    "compile_us_geo" -> untraced.geo("compile_us", programs, CompileQuantile),
    "local_seq_ms_geo" -> untraced.geo("local.seq", programs)) ++
    (if (opts.trace) Map("local_par_ms_geo" -> untraced.geo("local.par", programs)) else Nil) +
    ("spark_ms_geo" -> untraced.geo("spark", programs)) +
    ("hand_spark_ms_geo" -> untraced.geo("hand.spark", programs))

  /** Geometric mean over programs of the sum over each program's top-level
    * statements of the statement's median time.
    */
  private def stmtGeo(name: String): Double = {
    val perStmt = tracer.spans.filter(_.name == name).groupBy(sp => (sp.program, sp.stmt))
      .toSeq.map { case ((prog, _), sps) => prog -> Stats.median(sps.map(_.ms)) }
    Stats.geomean(perStmt.groupMapReduce(_._1)(_._2)(_ + _).values)
  }

  private def perLayer(progs: List[Prog]): mutable.LinkedHashMap[String, (Double, String)] = {
    val ir = progs.map(_.ir).foldLeft(IrCounts.zero)(_ + _)
    // Geometric mean over programs of num/den medians, where both exist.
    def ratio(num: Samples, n: String, den: Samples, d: String, ps: Seq[String] = programs) =
      Stats.geomean(ps.filter(p => num.get(n, p).nonEmpty && den.get(d, p).nonEmpty)
        .map(p => num.median(n, p) / den.median(d, p)))
    val m = mutable.LinkedHashMap[String, (Double, String)](
      "core.compile_us" -> (untraced.geo("compile_us", programs, CompileQuantile) * hostFactor, "us"),
      "core.parse_us" -> (traced.geo("core.parse", programs), "us"),
      "core.check_us" -> (traced.geo("core.check", programs), "us"),
      "core.translate_us" -> (traced.geo("core.translate", programs), "us"),
      "core.optimize_us" -> (traced.geo("core.optimize", programs), "us"),
      "core.target_stmts" -> (ir.stmts.toDouble, "count"),
      "core.generators" -> (ir.generators.toDouble, "count"),
      "core.range_gens" -> (ir.rangeGens.toDouble, "count"),
      "core.group_bys" -> (ir.groupBys.toDouble, "count"),
      "core.lookups" -> (ir.lookups.toDouble, "count"),
      "local.seq.stmt_ms" -> (stmtGeo("local.seq.stmt"), "ms"),
      "local.par.stmt_ms" -> (stmtGeo("local.par.stmt"), "ms"),
      "local.rows_out" -> (traced.total("local.rows_out", programs), "count"),
      "local.seq.alloc_mb" -> (traced.total("local.seq.alloc_mb", programs), "MB"),
      "local.gc_ms" -> (traced.total("local.gc_ms", programs), "ms"),
      "local.seq_ms" -> (untraced.geo("local.seq", programs), "ms"),
      "local.par_ms" -> (untraced.geo("local.par", programs), "ms"),
      "local.par_speedup" -> (ratio(untraced, "local.seq", untraced, "local.par"), "ratio"),
      "spark.stmt_ms" -> (stmtGeo("spark.stmt"), "ms"))
    for ((k, unit) <- List("spark.jobs" -> "count", "spark.stages" -> "count",
        "spark.tasks" -> "count", "spark.task_busy_ms" -> "ms",
        "spark.shuffle_write_mb" -> "MB", "spark.shuffle_read_mb" -> "MB",
        "spark.exchanges" -> "count", "spark.joins.smj" -> "count",
        "spark.joins.shj" -> "count", "spark.joins.bhj" -> "count",
        "spark.joins.nested_loop" -> "count", "spark.joins.cartesian" -> "count"))
      m(k) = (traced.total(k, programs), unit)
    m("bridge.to_df_ms") = (traced.total("bridge.to_df_ms", programs), "ms")
    m("data.gen_ms") = (traced.total("data.gen_ms", programs), "ms")
    m("spark.ms_geo") = (untraced.geo("spark", programs), "ms")
    m("hand.spark_ms") = (untraced.geo("hand.spark", programs), "ms")
    m("hand.ratio_geo") = (sparkVsHand, "ratio")
    // Each backend's traced time against its untraced time, over programs.
    val overhead = Stats.geomean(List("local.seq", "local.par", "spark").map(b =>
      ratio(traced, b, untraced, b)))
    m("trace.overhead_frac") = (overhead - 1.0, "fraction")
    m("host.calibration_ms") = (untraced.median("calibration", ""), "ms")
    m
  }

  private def environment(setupS: Double): Map[String, Any] = {
    val conf = spark.conf
    collection.immutable.ListMap(
      "workload" -> opts.workload, "seed" -> opts.seed, "seconds" -> opts.seconds,
      "trace" -> opts.trace, "nproc" -> nproc,
      "local_par_chunks" -> nproc,
      "heap" -> sys.props.getOrElse("perfbench.heap", "default"),
      "heap_max_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
      "gc" -> ManagementFactory.getGarbageCollectorMXBeans.toArray.map(
        _.asInstanceOf[java.lang.management.GarbageCollectorMXBean].getName).mkString(", "),
      "spark_version" -> spark.version,
      "spark_master" -> spark.sparkContext.master,
      "spark_shuffle_partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "spark_auto_broadcast_join_threshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "spark_adaptive" -> conf.get("spark.sql.adaptive.enabled"),
      "git_sha" -> sys.props.getOrElse("perfbench.gitSha", "unknown"),
      "source_stamp" -> sys.props.getOrElse("perfbench.sourceStamp", "unknown"),
      "scales" -> collection.immutable.ListMap.from(cases.map(c => c.name -> c.scale)),
      "rounds" -> rounds,
      "setup_s" -> setupS,
      "setup_phases_s" -> setupPhases,
      "raw" -> rawTimes,
      "failures" -> failures)
  }

  /** One row per program: its scale and the median of every metric, traced
    * and untraced (times in ms, compile times in µs).
    */
  private def programRows(progs: List[Prog]): List[Map[String, Any]] = {
    val sp = new Samples  // whole-program spans only
    tracer.spans.filter(_.stmt < 0).foreach(s => sp.add(s.name, s.program, s.ms))
    progs.map(p => collection.immutable.ListMap[String, Any](
      "program" -> p.name, "scale" -> p.c.scale,
      "untraced" -> untraced.medians(p.name),
      "traced" -> (traced.medians(p.name) ++ sp.medians(p.name))))
  }

  /** The env record, one row per program and one per target statement, as
    * JSON.
    */
  private def writeTrace(progs: List[Prog], env: Map[String, Any]): Unit = {
    val byStmt = tracer.spans.filter(_.stmt >= 0).groupBy(s => (s.program, s.stmt, s.name))
    val rows = for (p <- progs; (s, i) <- p.code.zipWithIndex) yield {
      def med(name: String) = byStmt.get((p.name, i, name)).map(x => Stats.median(x.map(_.ms)))
      collection.immutable.ListMap(
        "program" -> p.name, "stmt" -> i,
        "code" -> Translate.showStmt(s).linesIterator.next().take(160),
        "local_seq_ms" -> med("local.seq.stmt").getOrElse(-1.0),
        "local_par_ms" -> med("local.par.stmt").getOrElse(-1.0),
        "spark_ms" -> med("spark.stmt").getOrElse(-1.0))
    }
    val dir = new File(opts.out, "trace")
    dir.mkdirs()
    val file = new File(dir, s"${opts.workload}-seed${opts.seed}.json")
    val w = new PrintWriter(file)
    try w.println(Json(collection.immutable.ListMap(
      "env" -> env, "programs" -> programRows(progs), "statements" -> rows)))
    finally w.close()
    log(s"trace written to ${file.getPath}")
  }
}
