package repro.core

import Translate._

/** DIABLO pipeline: parse → restriction check (Def. 3.1) → Figure-2
  * translation → comprehension optimization. The result is backend-agnostic
  * target code, executed by `repro.local.LocalBackend` (sequential or
  * shared-memory parallel) or `repro.spark.SparkBackend` (DataFrames).
  */
object Diablo {

  final case class RestrictionError(violations: List[Analysis.Violation])
      extends RuntimeException(
        s"program violates the parallelization restrictions:\n  " +
          violations.mkString("\n  "))

  /** Full pipeline. `inputs` gives the signatures of externally-supplied
    * variables (scalars and arrays).
    */
  def compile(src: String, inputs: Map[String, Sig]): List[TStmt] = {
    val ast = Parser.parse(src)
    val errs = Analysis.check(ast)
    if (errs.nonEmpty) throw RestrictionError(errs)
    Optimize.optimize(Translate.translate(ast, inputs))
  }
}
