package repro.local

import repro.core.Comprehension._
import repro.core.Translate._
import repro.local.LocalBackend.Rec

/** The statement loop of DIABLO target code (§3.8), shared by both
  * backends: array assignments `V := V ◁ comprehension`, scalar
  * assignments and sequential while-loops over a state of values `V`.
  *
  * Generator-free scalar comprehensions (while conditions, scalar
  * assignments) are evaluated on the driver, by the local evaluator. A run
  * of scalar assignments that loop fission split from one loop body is
  * evaluated as one comprehension (see `Executor.runs`). A backend supplies
  * its value representation and two evaluators: the first value of a
  * comprehension, and the merge `old ◁ comprehension`.
  */
abstract class Executor[V] {
  type State = collection.Map[String, V]

  protected def scalar(v: Any): V
  protected def scalarValue: PartialFunction[V, Any]
  protected def emptyArray(keyArity: Int): V
  /** First column of the first row of `c`; None when `c` is empty. */
  protected def first(c: Comp, state: State): Option[Any]
  /** `old ◁ c` for an array whose value is `old`: the rows of `c` (keys,
    * then value) override `old`, and `c`'s old value (`Plan.old`) is read
    * from `old`.
    */
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

    def exec(ts: List[TStmt]): Unit = Executor.runs(ts).foreach {
      case Right(run) =>
        // one pass: the heads as one tuple over the shared qualifiers
        value(Comp(CTup(run.map(_.comp.head)), run.head.comp.quals)).foreach {
          case Rec(fs) => run.zip(fs).foreach { case (t, (_, v)) => state(t.name) = scalar(v) }
        }
      case Left(TInit(n, ka)) => state(n) = emptyArray(ka)
      case Left(TAssign(n, c, true)) =>
        for (QLookup(_, a, _, _) <- c.quals if a != n) throw new IllegalArgumentException(
          s"the update of $n reads the old value of $a")
        val ka = headColumns(c.head).length - 1
        state(n) = merge(state.getOrElse(n, emptyArray(ka)), c, ka, state)
      case Left(TAssign(n, c, false)) => value(c).foreach(v => state(n) = scalar(v))
      case Left(TWhileS(c, body)) =>
        while (value(c).exists(_.asInstanceOf[Boolean])) exec(body)
    }
    exec(prog)
    state.toMap
  }
}

object Executor {

  /** The order in which `ts` runs: each statement on its own (`Left`), except
    * that the longest run of two or more consecutive scalar assignments
    * `n_i := c_i` that can share one pass is evaluated together (`Right`).
    * They can when every `c_i` has a generator, all `c_i` have the same
    * qualifiers, no head reads the target of an earlier assignment in the
    * run and the qualifiers read none of the run's targets. Loop fission
    * (Theorem 3.1) produces such runs from one loop body that updates
    * several scalar accumulators.
    */
  def runs(ts: List[TStmt]): List[Either[TStmt, List[TAssign]]] = ts match {
    case Nil => Nil
    case t :: rest => fusable(ts) match {
      case run @ (_ :: _ :: _) => Right(run) :: runs(ts.drop(run.length))
      case _                   => Left(t) :: runs(rest)
    }
  }

  /** The longest prefix of `ts` that can share one pass. */
  private def fusable(ts: List[TStmt]): List[TAssign] = ts match {
    case TAssign(_, Comp(_, quals), false) :: _ if quals.exists(_.isInstanceOf[Gen]) =>
      val qualReads = quals.flatMap(qualExprs).flatMap(stateVars).toSet
      def go(rest: List[TStmt], targets: Set[String]): List[TAssign] = rest match {
        case (t @ TAssign(n, Comp(head, `quals`), false)) :: more
            if !qualReads(n) && !stateVars(head).exists(targets) =>
          t :: go(more, targets + n)
        case _ => Nil
      }
      go(ts, Set.empty)
    case _ => Nil
  }

  private def qualExprs(q: Qual): List[CExpr] = q match {
    case Gen(_, src)    => List(src)
    case QLet(_, e)     => List(e)
    case QPred(e)       => List(e)
    case QGroup(_, ks)  => ks
    case _: QLookup     => Nil
  }

  /** The scalar state variables an expression reads. */
  private def stateVars(e: CExpr): Set[String] = e match {
    case CState(n) => Set(n)
    case _         => children(e).foldLeft(Set.empty[String])(_ ++ stateVars(_))
  }
}
