(** Write-ahead-log schema for durable spaces.

    The {!Netobj_store.Store} carries opaque byte strings; this module
    defines what a durable space writes into them: one {!record} per
    GC-relevant state transition (appended at the commit point that
    makes the transition visible to peers) and a {!snapshot} of the
    whole image for log truncation.  Recovery replays the snapshot,
    then the log suffix, in order. *)

type record =
  | Epoch of { epoch : int; cont : int }
      (** incarnation bump; [cont] is the continuity floor carried in
          every packet *)
  | Export of { wr : Wirerep.t; tag : string }
      (** a concrete object entered the table; [tag] selects the
          registered method-suite factory at recovery *)
  | Reclaim of Wirerep.t  (** the collector removed a dead concrete *)
  | Root of { wr : Wirerep.t; delta : int }  (** local root count ±1 *)
  | Link of { parent : Wirerep.t; child : Wirerep.t; add : bool }
      (** heap edge between local concretes *)
  | Bind of { name : string; wr : Wirerep.t }  (** agent name bind *)
  | Unbind of string
  | Dirty of { wr : Wirerep.t; client : int; seq : int; add : bool }
      (** dirty-set add/remove at the owner with the client's seqno *)
  | Evict of int  (** lease eviction of every entry of this client *)
  | Forget of int
      (** the peer restarted with amnesia: drop its dirty entries and
          its sequence-number history *)
  | Surrogate of { wr : Wirerep.t; add : bool }
      (** a usable surrogate appeared/disappeared at this space *)
  | Seqno of { wr : Wirerep.t; n : int }
      (** a dirty/clean sequence number drawn from the space-wide
          counter; recovery only needs the largest *)
  | Pins of { msg : int; wrs : Wirerep.t list }
      (** transient dirty pins for an outgoing message *)
  | Unpins of int  (** the message was acknowledged; pins released *)
  | Peer of { peer : int; epoch : int }
      (** highest incarnation epoch seen from this peer — guards the
          forget-vs-reconcile decision across our own recovery *)

val record_codec : record Netobj_pickle.Pickle.t

val pp_record : record Fmt.t

type concrete = {
  c_wr : Wirerep.t;
  c_tag : string;
  c_slots : Wirerep.t list;
  c_dirty : (int * int) list;  (** (client, last seq accepted) *)
}

type snapshot = {
  s_epoch : int;
  s_cont : int;
  s_next_index : int;
  s_next_msg : int;
  s_next_call : int;
  s_peers : (int * int) list;  (** peer -> highest epoch seen *)
  s_concretes : concrete list;
  s_surrogates : Wirerep.t list;  (** usable surrogates *)
  s_roots : (Wirerep.t * int) list;
  s_pins : (int * Wirerep.t list) list;
  s_next_seq : int;
      (** the space-wide dirty/clean sequence-number counter; recovery
          raises it past every replayed {!Seqno} record *)
  s_bindings : (string * Wirerep.t) list;
}

val concrete_codec : concrete Netobj_pickle.Pickle.t

val snapshot_codec : snapshot Netobj_pickle.Pickle.t
