(** Helpers every layer's JSON exporter shares. *)

val json_escape : string -> string
(** The body of a JSON string literal holding [s], without the quotes: a
    double quote or a backslash gets a backslash in front, newline, tab
    and carriage return become the two-character escapes [\n], [\t] and
    [\r], every other byte below 0x20 becomes [\u00XX], and all other
    bytes (UTF-8 included) pass through. *)
