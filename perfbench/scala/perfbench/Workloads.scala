package perfbench

import repro.programs.Benchmarks
import repro.programs.Benchmarks.ProgramSpec

/** One program of a workload, run at one scale on every backend. */
final case class Case(spec: ProgramSpec, scale: Int) {
  def name: String = spec.name
}

/** The three workloads: loop programs grouped by the shape of the code
  * DIABLO generates for them. Inputs come from `spec.data(scale, seed)`.
  */
object Workloads {

  /** Ten PageRank rounds inside a driver-side `while`, as in IterativeSpec:
    * `P` is merged in place (`P := P ◁ …`) every round. Inputs and
    * signatures are those of the one-step PageRank.
    */
  val iterativePageRank: ProgramSpec = ProgramSpec("Iterative PageRank",
    """var C: vector[long] = vector();
      |for e in E do C[e.src] += 1;
      |var k: long = 0;
      |while (k < 10) {
      |  k += 1;
      |  var OUT: vector[double] = vector();
      |  for e in E do OUT[e.dst] += P[e.src]/C[e.src];
      |  for i = 0, n-1 do P[i] := 0.15/n + 0.85*OUT[i];
      |};
      |""".stripMargin,
    Benchmarks.pageRank.sigs,
    Benchmarks.pageRank.data,
    List("P", "k"))

  val iterativeRounds = 10

  import Benchmarks._

  /** Single-input scans: per-element evaluation and aggregation, including
    * the extra passes of loop fission and the rule-16/17 group-bys; no joins.
    * Scales are about a tenth of `Harness.figure3Scales`: at those scales
    * one run takes over 170 s (inputs, reference and warm-up alone about
    * 100 s), more than a run may take. README.md gives the measured regime
    * at both sizes.
    */
  val scanAgg: List[Case] = List(
    Case(conditionalSum, 30_000),
    Case(equal, 20_000),
    Case(stringMatch, 20_000),
    Case(wordCount, 20_000),
    Case(histogram, 15_000),
    Case(linearRegression, 15_000),
    Case(groupBy, 20_000),
    Case(equalFrequency, 20_000))

  /** Multi-generator comprehensions: joins, cross joins, lookups and
    * full-outer `◁` merges. Scales are `Harness.figure3Scales`, except
    * Matrix Multiplication (40, not 60) and KMeans (1,000 points, not
    * 5,000), whose sequential local runs at those scales take 0.6 s and 6 s.
    * Matrix Factorization is left out: its 40 Spark jobs take 4-5 s per
    * execution whatever the scale, and with its warm-up and reference it
    * added about 14 s to every run.
    */
  val joinLinalg: List[Case] = List(
    Case(matrixAddition, 120),
    Case(matrixMultiplication, 40),
    Case(pageRank, 3_000),
    Case(kMeans, 1_000))

  /** Writes beside reads: a `◁` merge into an existing array every round,
    * driver-side scalar updates and `while` tests. The scale is that of the
    * one-step PageRank.
    */
  val iterative: List[Case] = List(Case(iterativePageRank, 3_000))

  val byName: Map[String, List[Case]] = Map(
    "scan-agg" -> scanAgg,
    "join-linalg" -> joinLinalg,
    "iterative" -> iterative)
}
