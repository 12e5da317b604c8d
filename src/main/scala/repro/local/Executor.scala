package repro.local

import repro.core.Comprehension._
import repro.core.Translate._

/** The statement loop of DIABLO target code (§3.8), shared by both
  * backends: array assignments `V := V ◁ comprehension`, scalar
  * assignments and sequential while-loops over a state of values `V`.
  *
  * Generator-free scalar comprehensions (while conditions, scalar
  * assignments) are evaluated on the driver, by the local evaluator. A
  * backend supplies its value representation and two evaluators: the
  * first value of a comprehension, and the merge `old ◁ comprehension`.
  */
abstract class Executor[V] {
  type State = collection.Map[String, V]

  protected def scalar(v: Any): V
  protected def scalarValue: PartialFunction[V, Any]
  protected def emptyArray(keyArity: Int): V
  /** First column of the first row of `c`; None when `c` is empty. */
  protected def first(c: Comp, state: State): Option[Any]
  /** `old ◁ c`: the rows of `c` (keys, then value) override `old`. */
  protected def merge(old: V, c: Comp, keyArity: Int, state: State): V

  /** Run target code over an initial state; returns the final state. */
  final def run(prog: List[TStmt], init: Map[String, V]): Map[String, V] = {
    val state = collection.mutable.Map.empty[String, V] ++ init
    def scalarOf(n: String): Any = scalarValue.applyOrElse(state(n), (_: V) =>
      throw new IllegalArgumentException(s"$n is not a scalar"))
    // a scalar's value is its whole head, also when that is a tuple
    def value(c: Comp): Option[Any] = {
      val whole = Comp(CTup(List(c.head)), c.quals)
      if (c.quals.exists(_.isInstanceOf[Gen])) first(whole, state)
      else LocalBackend.driverValue(whole, scalarOf)
    }

    def exec(ts: List[TStmt]): Unit = ts.foreach {
      case TInit(n, ka) => state(n) = emptyArray(ka)
      case TAssign(n, c, true) =>
        val ka = headColumns(c.head).length - 1
        state(n) = merge(state.getOrElse(n, emptyArray(ka)), c, ka, state)
      case TAssign(n, c, false) => value(c).foreach(v => state(n) = scalar(v))
      case TWhileS(c, body) =>
        while (value(c).exists(_.asInstanceOf[Boolean])) exec(body)
    }
    exec(prog)
    state.toMap
  }
}
