(** Grant tables: Xen's page-sharing mechanism.

    A domain grants a specific foreign domain access to one of its pages
    and passes the grant reference through the I/O ring or xenstore; the
    grantee then either {e maps} the page into its own address space or
    asks the hypervisor to {e copy} into/out of it (grant copy — what
    modern netfront/netback use, and what Kite implements for its network
    path).

    Mapping and unmapping are hypercalls and dominate backend overhead,
    which is why Kite's blkback keeps {e persistent references}: pages stay
    mapped and a lookup table reuses the mapping on later requests (see
    {!val:map}'s behaviour when the page is already mapped). *)

type t
type ref_ = int

type entry
(** A live grant entry, found once by {!find}. *)

exception Grant_error of string

val create : Hypervisor.t -> t

val set_check : t -> Kite_check.Check.t option -> unit
(** Attach the grant sanitizer: use-after-revoke, double unmap,
    [end_access] while mapped, and the end-of-run leak audit. *)

val set_race : t -> Kite_race.Race.t option -> unit
(** Attach the race detector: grant/map/unmap/end mutate the entry's
    instrumented location, copies read it.  [revoke_domain] bypasses the
    hooks — domain destruction is exogenous to the happens-before
    model. *)

val grant_access :
  t -> granter:Domain.t -> grantee:Domain.t -> page:Page.t -> writable:bool ->
  ref_
(** Make [page] available to [grantee].  Pure table update (no
    hypercall): grant entries live in pre-shared frames. *)

val end_access : t -> granter:Domain.t -> ref_ -> unit
(** Revoke a grant.  Raises {!Grant_error} if the grant is still mapped. *)

val map : t -> grantee:Domain.t -> ref_ -> Page.t
(** Map a granted page; charges one map hypercall.  Raises {!Grant_error}
    on bad ref, wrong grantee, or revoked grant. *)

val map_many : t -> grantee:Domain.t -> entry array -> unit
(** Batched map of entries the caller's {!find} returned: one hypercall
    trap for the whole array (what blkback does for a drained run's
    segments), charged for the entries not already mapped.  The checker
    and race hooks fire once per entry, in array order, as {!map}'s do.
    Raises {!Grant_error} on an entry that has since been ended or
    revoked (check {!live} first) or that names another grantee. *)

val unmap : t -> grantee:Domain.t -> ref_ -> unit

val unmap_many : t -> grantee:Domain.t -> entry array -> unit
(** Batched unmap: one hypercall trap for the whole array.  Raises
    {!Grant_error} on an entry that is not mapped. *)

val copy_to_granted :
  t -> caller:Domain.t -> ref_ -> off:int -> Bytes.t -> unit
(** GNTTABOP_copy into the granted page without mapping it. *)

val copy_from_granted :
  t -> caller:Domain.t -> ref_ -> off:int -> len:int -> Bytes.t
(** GNTTABOP_copy out of the granted page. *)

val copy_to_granted_many :
  t -> caller:Domain.t -> (entry * int * Bytes.t) list -> unit
(** Batched grant copy: every [(entry, off, data)] op rides a single
    hypercall trap (cf. gnttab_batch_copy), amortizing the trap cost
    over a queue's pending requests.  The entries are the ones the
    caller's {!find} returned while it validated the descriptors, so a
    reference is looked up once per frame.  Per-op validation and
    checker hooks are identical to {!copy_to_granted}; a 1-op batch
    costs the same as the singular form. *)

val copy_from_granted_many :
  t -> caller:Domain.t -> (entry * int * int) list -> Bytes.t list
(** Batched counterpart of {!copy_from_granted}: one hypercall for the
    whole [(entry, off, len)] list, results in op order. *)

val revoke_domain : t -> domid:int -> unit
(** Domain destruction: forcibly unmap everything [domid] had mapped (so
    surviving granters can [end_access] their references), and drop every
    entry [domid] had granted (its grant table dies with it).  The
    checker's shadow state is kept consistent (unmap before end). *)

(** {2 Pooled allocation}

    A pool is a per-queue set of pre-granted pages with one (granter,
    grantee, writability) shape.  Buffers taken from the pool come
    already granted; putting them back parks the grant for reuse
    instead of revoking it, so reposting and multi-queue re-handshakes
    cost nothing at the grant table. *)

type pool

val pool :
  t -> granter:Domain.t -> grantee:Domain.t -> writable:bool -> pool

val pool_take : pool -> ref_ * Page.t
(** Reuse an idle pooled buffer, or grant a fresh zeroed page if the
    pool is empty. *)

val pool_put : pool -> ref_ * Page.t -> unit
(** Return a buffer to the pool; the grant stays live. *)

val pool_drain : pool -> unit
(** Revoke every idle pooled grant (shutdown path; keeps the leak audit
    clean).  Outstanding buffers are untouched. *)

val owner : t -> ref_ -> int option
(** The granting domid of a live reference, [None] for an unknown or
    revoked one.  The backend-side ownership probe: a reference supplied
    by a frontend must be validated against that frontend's domid
    *before* any map or copy, so a forged or foreign reference is
    rejected at the trust boundary instead of surfacing as a hypervisor
    [Grant_error].  A pure table query — no checker hook, no cost. *)

val find : t -> ref_ -> entry option
(** The live entry of a reference; [None] for an unknown or revoked one.
    Like {!owner}, but the entry also answers {!grantee} and {!writable}
    and is what the batched copies and maps take, for backends that
    validate a descriptor and then copy or map through it (netback Tx
    and Rx, blkback). *)

val gref : entry -> ref_

val granter : entry -> int
(** The granting domid. *)

val grantee : entry -> int
(** The domid the grant is for. *)

val writable : entry -> bool

val page : entry -> Page.t
(** The granted page: what mapping the entry makes visible. *)

val live : entry -> bool
(** False once the grant has been ended or revoked with its domain.  A
    backend that keeps an entry from validation to map re-checks it
    here, after any point where it slept. *)

val active_grants : t -> int
(** Number of grants currently in the table. *)

val map_count : t -> int
(** Total map hypercall operations performed (for the persistent-grant
    ablation). *)

val unmap_count : t -> int
(** Total unmap operations performed. *)

val copy_count : t -> int
(** Total GNTTABOP_copy operations performed (either direction). *)
