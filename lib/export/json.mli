(** A small JSON codec for the serving protocol and the result cache.

    The repo deliberately has no external JSON dependency; the existing
    encoders ([Ee_fault.Campaign.to_json], [Ee_report.Perf_report.to_json],
    [Ee_engine.Trace.to_chrome_json]) print by hand.  This module adds the
    missing half — a parser — plus a compact printer whose output never
    contains a newline, so a value is always a legal line of the
    newline-delimited protocol spoken by [ee_synthd].

    Numbers: integers parse to {!Int} when they fit; anything with a
    fraction or exponent parses to {!Float}.  Non-finite floats print as
    [null] (JSON has no representation for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** Trusted, already-encoded JSON spliced verbatim into the output.
          Used to embed the repo's existing hand-written encoders without
          re-parsing; see {!raw_compact}.  The parser never produces it. *)

val to_string : t -> string
(** Compact, single-line rendering (no newline anywhere, including inside
    escaped strings). *)

val raw_compact : string -> t
(** Wrap pre-encoded JSON as {!Raw}, replacing newlines by spaces so the
    result stays single-line.  Only safe when the embedded document does not
    contain literal newlines inside its own string literals — true of every
    encoder in this repo. *)

val parse : string -> (t, string) result
(** Parse one JSON document; trailing whitespace is allowed, any other
    trailing garbage is an error.  Arrays and objects nested more than
    512 deep are an error too, found at the first level past the bound.
    Errors carry a character offset. *)

(** {1 Accessors} (shallow, total) *)

val member : string -> t -> t option
(** Field lookup on an {!Obj}; [None] on missing field or non-object. *)

val to_int : t -> int option
(** Also accepts an integral {!Float}. *)

val to_float : t -> float option
(** Accepts {!Int} too. *)

val to_string_opt : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
