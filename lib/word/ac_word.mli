(** Fixed-width two's-complement machine words with C99 semantics.

    Words carry their width and are stored as the unsigned representative in
    [0, 2{^width}); signedness is a property of each operation (the [sign]
    argument), mirroring hardware and the paper's [word32]/[sword32] split.
    Operations wrap; the [*_overflows] predicates are what the C translation
    layer turns into undefined-behaviour guards. *)

module B = Ac_bignum

type width = W8 | W16 | W32 | W64
type sign = Signed | Unsigned

type t

val bits : width -> int

(** Construction reduces the argument modulo 2{^width}. *)
val of_bignum : width -> B.t -> t

val of_int : width -> int -> t
val zero : width -> t
val one : width -> t
val width_of : t -> width

(** The unsigned value — the paper's [unat] (always in [0, 2{^width})). *)
val unat : t -> B.t

(** The signed value — the paper's [sint] (in [-2{^w-1}, 2{^w-1})). *)
val sint : t -> B.t

val value : sign -> t -> B.t
val to_int_exn : t -> int
val is_zero : t -> bool

val equal : t -> t -> bool
val compare_u : t -> t -> int
val compare : sign -> t -> t -> int

val min_value : sign -> width -> B.t
val max_value : sign -> width -> B.t

(** [in_range sign width v] holds iff the ideal value [v] is representable. *)
val in_range : sign -> width -> B.t -> bool

val add : sign -> t -> t -> t
val sub : sign -> t -> t -> t
val mul : sign -> t -> t -> t
val neg : sign -> t -> t

(** @raise Ac_bignum.Division_by_zero *)
val div : sign -> t -> t -> t

(** @raise Ac_bignum.Division_by_zero *)
val rem : sign -> t -> t -> t

val add_overflows : sign -> t -> t -> bool
val div_overflows : sign -> t -> t -> bool

val lognot : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

(** [shift_amount_ok w n] holds iff [0 <= n < width] — the C99 requirement. *)
val shift_amount_ok : t -> B.t -> bool

val shift_left : t -> B.t -> t
val shift_right_u : t -> B.t -> t
val shift_right_s : t -> B.t -> t
val shift_right : sign -> t -> B.t -> t

(** C99 6.3.1.3 integer conversion; two's-complement truncation. *)
val cast : to_sign:sign -> to_width:width -> sign -> t -> t

(** Reduce an ideal value into the range of the target type: the inverse of
    [unat]/[sint] used when word abstraction re-concretises a value. *)
val cast_value : to_sign:sign -> to_width:width -> B.t -> B.t

(** Little-endian byte decomposition, for the byte-addressed heap. *)
val to_bytes : t -> int list

val of_bytes : width -> int list -> t

val pp : Format.formatter -> t -> unit
val to_string_u : t -> string
val to_string_s : t -> string
val hash : t -> int
