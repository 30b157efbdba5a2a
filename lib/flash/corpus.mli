(** The synthetic FLASH protocol corpus.

    [generate ()] deterministically produces the five protocols plus the
    common code: Clite sources (printed, then re-parsed through the full
    front end, exactly as xg++ consumed post-cpp text), the
    protocol-writer-supplied specification the checkers need, and the
    ground-truth manifest of seeded faults. *)

type protocol = {
  name : string;
  config : Profile.config;
  files : (string * string) list;  (** file name, full source text *)
  tus : Ast.tunit list;  (** parsed and type-annotated *)
  spec : Flash_api.spec;
  manifest : Manifest.entry list;
  loc : int;  (** protocol LOC, headers (prelude) excluded *)
}

type t = { protocols : protocol list; seed : int }

val generate : ?seed:int -> unit -> t
val write_to_dir : t -> string -> unit
(** write every protocol's .c files into a directory *)
