(** Inter-procedural analysis framework — the xg++ global-analysis
    analogue behind the lanes checker (Section 7).

    The client supplies an abstract domain (a join semilattice with a
    sequencing operator and a loop-safety predicate) and a function giving
    the local effect of each CFG node.  The framework has the paper's two
    passes: a local pass turns one function into a compact flow graph
    ({!Make.local}), and a global pass links the flow graphs through the
    call graph and computes per-function worst-case path summaries,
    splicing callee summaries in at call sites, with the paper's
    fixed-point rule for cycles. *)

module type DOMAIN = sig
  type t

  val zero : t
  (** identity for {!seq}, on both sides — "no effect" *)

  val seq : t -> t -> t
  (** sequential composition along a path *)

  val join : t -> t -> t
  (** least upper bound across alternative paths *)

  val equal : t -> t -> bool

  val loop_safe : t -> bool
  (** is repeating this effect a fixed point? (the paper's "cycles that
      do not send" rule) *)

  val pp : Format.formatter -> t -> unit
end

module type CLIENT = sig
  module D : DOMAIN

  val event : Ast.func -> Cfg.node -> D.t
  (** local effect of one CFG node (identity for most nodes) *)
end

module Make (C : CLIENT) : sig
  module D : DOMAIN with type t = C.D.t

  type site = { site_func : string; site_loc : Loc.t; site_effect : D.t }

  (** worst-case effect plus the witness path achieving it (for the
      paper's inter-procedural back traces) *)
  type summary = { effect_ : D.t; witness : site list }

  (** {2 The local pass} *)

  type local
  (** one function's flow graph: each CFG node's effect term (the
      client's event and the node's call sites, by callee name and
      location), its forward edges and its loops' bodies.  Plain data,
      with no AST inside, so it can be marshalled and cached. *)

  val local : Ast.func -> local
  (** a pure function of the function's text.  A function whose CFG
      cannot be built gets a local that raises {!Cfg.Build_error} when
      the global pass reaches it. *)

  val loc : local -> Loc.t
  (** the function's location *)

  val has_loop_and_event : local -> bool
  (** does the function have a loop and a node with a non-identity
      event? (the fixed-point ablation's test)
      @raise Cfg.Build_error as the global pass would *)

  (** {2 The global pass} *)

  type ctx

  val create : (string -> local option) -> ctx
  (** a global pass over the flow graphs [lookup] names, the functions
      defined in the program; each name is looked up at most once *)

  val find : ctx -> string -> local option
  (** the flow graph of a name, through the lookup *)

  val summarize : ctx -> string -> summary option
  (** worst-case effect of running the named function, callees spliced in
      transitively; [None] when the function is not defined
      @raise Cfg.Build_error when a reached function's CFG could not be
      built *)

  val summary_of : ctx -> string -> summary option
  (** a previously computed summary, if any *)

  val cycles : ctx -> (string * Loc.t) list
  (** recursive call-graph cycles encountered (treated as fixed points);
      warn when the involved function's summary is not loop-safe *)

  val effectful_loops : ctx -> (string * Loc.t) list
  (** intra-procedural loops whose body is not a fixed point *)
end
