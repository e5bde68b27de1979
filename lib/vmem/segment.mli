(** A contiguous region of the simulated address space with per-byte
    contents and attacker-taint. Byte-level accessors here are unchecked;
    use {!Vmem} for permission-checked access. *)

type kind = Text | Data | Bss | Heap | Stack | Mmap

val kind_name : kind -> string

val kind_count : int

val kind_index : kind -> int
(** Dense index in [0, kind_count): declaration order. *)

val page_shift : int
(** Dirty-tracking granularity: pages are [1 lsl page_shift] bytes. *)

val page_size : int

type t = {
  kind : kind;
  base : int;
  size : int;
  bytes : Bytes.t;
  taint : Bytes.t;
  mutable perm : Perm.t;
  marks : Bytes.t;
      (** one byte per {!page_size}-byte page, carrying two page bitmaps
          as bit planes, both set by every write (contents or taint):
          - the dirty bitmap: the page was written since the last
            {!clear_dirty}, which {!Vmem}'s snapshots and restores call;
          - the touched bitmap: the page was written since its one reader
            last took the mark ({!take_touched}). The reader is the heap
            allocator, which re-checks its out-of-band block index against
            the block headers on each page it takes. Unlike the dirty
            bitmap, nothing else clears it, so it records every page
            written since the reader last looked. Restores rewrite bytes
            without marking it; a reader must drop whatever it derived
            from the segment when a restore happens.
          One byte holds both so that a write still costs one store. *)
  mutable dirty_any : bool;
      (** [false] implies no page is in the dirty bitmap — the cheap
          "nothing to rewind" test *)
}

val create : kind:kind -> base:int -> size:int -> perm:Perm.t -> t
(** @raise Invalid_argument on a non-positive size or negative base. *)

val limit : t -> int
(** One past the last mapped address. *)

val contains : t -> int -> bool

val get_byte : t -> int -> int
(** Unchecked read; the address must be inside the segment. *)

val set_byte : t -> int -> int -> unit
(** Unchecked write of the low 8 bits of the value. *)

val get_taint : t -> int -> bool
val set_taint : t -> int -> bool -> unit

val clear : t -> unit
(** Zero both contents and taint. *)

(** {1 Dirty-page tracking}

    A fresh segment starts fully dirty: its contents have not been
    synced against any snapshot. Writers mark; {!Vmem}'s snapshot and
    restore clear at sync points. *)

val mark_dirty : t -> int -> int -> unit
(** [mark_dirty t off len]: put the pages covering [len] bytes at
    segment offset [off] in both bitmaps. No-op when [len <= 0]. *)

val mark_all_dirty : t -> unit
(** Mark every page in both bitmaps. *)

val clear_dirty : t -> unit
(** Clear the dirty bitmap only; the touched bitmap is left to its
    reader. *)

val take_touched : t -> int -> int -> (int -> unit) -> unit
(** [take_touched t p0 p1 f]: for each page [p] in [p0 .. p1] (page
    indices, inclusive) in the touched bitmap, take it out and apply
    [f p]. Eight clean pages cost one word read. *)

val iter_dirty_runs : t -> (int -> int -> unit) -> unit
(** Apply [f off len] to each maximal run of pages in the dirty bitmap,
    offsets and lengths in bytes relative to the segment base, clamped to
    [size]. *)

val pp : Format.formatter -> t -> unit
