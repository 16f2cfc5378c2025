(** A unit-sized list indexed by name: the kernel context's unit-level
    facts ([Rules.ctx]'s nothrow set, heap-lifted set, word-abstraction
    signatures and callee bodies), and the driver's other per-unit
    lookups.

    The driver builds one index per context; the kernel and the phases
    then test membership and look names up in logarithmic time instead
    of scanning the list.  The list itself is kept, in its order, for
    the callers that print or store it.  As with [List.assoc], the first
    item with a given name is the one the lookups find.  An index is
    immutable, so reading it from several domains at once is safe. *)

type 'a t

val empty : 'a t

(** [of_list name items] indexes [items] by [name]. *)
val of_list : ('a -> string) -> 'a list -> 'a t

(** [names l] is [of_list Fun.id l]. *)
val names : string list -> string t

val mem : 'a t -> string -> bool
val find_opt : 'a t -> string -> 'a option

(** @raise Not_found when no item has the name. *)
val find : 'a t -> string -> 'a

(** The items, in the order given to {!of_list}, duplicates included. *)
val to_list : 'a t -> 'a list
