(** Plain-text serialization of instances and strategies.

    A downstream user needs to move problem instances between the generator,
    the planner and external tooling; this module defines a line-oriented,
    human-inspectable format (one logical record per line, `#` comments,
    whitespace-separated fields) with full round-tripping.

    Format (version header `revmax-instance 1`):
    {v
    revmax-instance 1
    dims <num_users> <num_items> <horizon> <display_limit>
    item <i> <class> <capacity> <saturation> <p(i,1)> ... <p(i,T)>   (per item)
    rating <u> <i> <r>                                               (optional)
    q <u> <i> <q(u,i,1)> ... <q(u,i,T)>                              (per candidate)
    end
    v}

    Strategies (`revmax-strategy 1`) are lists of `triple <u> <i> <t>` lines.
    Floats are printed with ["%.17g"] so round-trips are exact.

    The reader allocates in proportion to what it reads: item tables are
    sized from the [item] records, not from [dims], and a [dims] line
    declaring more than {!max_users} users is a [Parse_error] (users need
    no record, yet each costs the instance two row-offset words; instances
    beyond the cap travel as packs, {!Instance.of_mmap}).

    Malformed input is reported as a structured
    {!Revmax_prelude.Err.Parse_error} carrying the file path, 1-based line
    number, and — for token-level problems such as a bad integer or float —
    the 1-based column of the offending token. The [_result] variants return
    it; the plain variants raise [Failure] with the rendered message. *)

val max_users : int
(** The text format's cap on the declared user count: [2^24]. *)

val write_instance : out_channel -> Instance.t -> unit

val read_instance : ?file:string -> in_channel -> Instance.t
(** Raises [Failure] with a [file:line:col]-prefixed message on malformed
    input ([file] defaults to ["<channel>"]). *)

val read_instance_result : ?file:string -> in_channel -> (Instance.t, Revmax_prelude.Err.t) result
(** Like {!read_instance} but never raises: malformed input yields
    [Error (Parse_error _)]; a structurally well-formed file describing an
    invalid instance yields [Error (Invalid_instance _)]. *)

val save_instance : string -> Instance.t -> unit
(** Write to a file path. *)

val load_instance : string -> Instance.t

val load_instance_result : string -> (Instance.t, Revmax_prelude.Err.t) result
(** Like {!load_instance} but never raises: an unreadable path yields
    [Error (Io_error _)], malformed content [Error (Parse_error _)]. *)

val write_strategy : out_channel -> Strategy.t -> unit

val read_strategy : ?file:string -> Instance.t -> in_channel -> Strategy.t
(** Triples are validated against the instance's dimensions. *)

val read_strategy_result :
  ?file:string -> Instance.t -> in_channel -> (Strategy.t, Revmax_prelude.Err.t) result

val save_strategy : string -> Strategy.t -> unit
val load_strategy : Instance.t -> string -> Strategy.t
val load_strategy_result : Instance.t -> string -> (Strategy.t, Revmax_prelude.Err.t) result

(** {1 Atomic writes} *)

val save_atomic : string -> (out_channel -> unit) -> unit
(** [save_atomic path f] writes [f]'s output to a fresh temporary file in
    [path]'s directory, [fsync]s it, and renames it over [path], so readers
    never observe a partially-written file and a crash mid-write leaves any
    previous content intact. The data fsync happens {e before} the rename —
    without it a journaling filesystem may commit the rename ahead of the
    data blocks and power loss would reveal the new name with empty or
    truncated contents, the torn-checkpoint state this function exists to
    rule out. The parent directory is fsynced best-effort after the rename
    so the new name itself is durable. The temporary file is removed if [f]
    raises. *)
