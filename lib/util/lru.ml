(* Classic hash-table + doubly-linked-list LRU. The list holds recency
   order (head = most recent); the table maps keys to their nodes so both
   lookup and promotion are O(1). *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;  (* towards the MRU head *)
  mutable next : 'a node option;  (* towards the LRU tail *)
}

type stats = { hits : int; misses : int; insertions : int; evictions : int }

type 'a t = {
  name : string option;
  (* [<name>.hit], [<name>.miss], [<name>.eviction], built once here so a
     lookup with telemetry off allocates nothing for them. *)
  hit_counter : string option;
  miss_counter : string option;
  eviction_counter : string option;
  capacity : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
}

let create ?name ~capacity () =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  let counter suffix = Option.map (fun name -> name ^ suffix) name in
  {
    name;
    hit_counter = counter ".hit";
    miss_counter = counter ".miss";
    eviction_counter = counter ".eviction";
    capacity;
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.table
let stats t = { hits = t.hits; misses = t.misses; insertions = t.insertions; evictions = t.evictions }

let count = function None -> () | Some counter -> Telemetry.count counter

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let promote t node =
  match t.head with
  | Some h when h == node -> ()
  | Some _ | None ->
    unlink t node;
    push_front t node

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    t.hits <- t.hits + 1;
    count t.hit_counter;
    promote t node;
    Some node.value
  | None ->
    t.misses <- t.misses + 1;
    count t.miss_counter;
    None

let peek t key = Option.map (fun node -> node.value) (Hashtbl.find_opt t.table key)

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table node.key;
    t.evictions <- t.evictions + 1;
    count t.eviction_counter

let put t key value =
  if t.capacity > 0 then
    match Hashtbl.find_opt t.table key with
    | Some node ->
      node.value <- value;
      promote t node
    | None ->
      let node = { key; value; prev = None; next = None } in
      Hashtbl.replace t.table key node;
      push_front t node;
      t.insertions <- t.insertions + 1;
      if Hashtbl.length t.table > t.capacity then evict_lru t

let record_metrics t =
  let labels = [ ("cache", Option.value t.name ~default:"cache") ] in
  Telemetry.declare ~help:"live entries in the cache" Telemetry.Gauge "mcx_cache_entries";
  Telemetry.declare ~help:"configured cache capacity" Telemetry.Gauge "mcx_cache_capacity";
  Telemetry.declare ~help:"lookups that found a live entry" Telemetry.Counter
    "mcx_cache_hits_total";
  Telemetry.declare ~help:"lookups that found nothing" Telemetry.Counter
    "mcx_cache_misses_total";
  Telemetry.declare ~help:"puts that added a new key" Telemetry.Counter
    "mcx_cache_insertions_total";
  Telemetry.declare ~help:"entries dropped to respect capacity" Telemetry.Counter
    "mcx_cache_evictions_total";
  Telemetry.set ~labels "mcx_cache_entries" (float_of_int (length t));
  Telemetry.set ~labels "mcx_cache_capacity" (float_of_int t.capacity);
  Telemetry.inc ~labels ~n:t.hits "mcx_cache_hits_total";
  Telemetry.inc ~labels ~n:t.misses "mcx_cache_misses_total";
  Telemetry.inc ~labels ~n:t.insertions "mcx_cache_insertions_total";
  Telemetry.inc ~labels ~n:t.evictions "mcx_cache_evictions_total"

let to_list t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some node -> walk ((node.key, node.value) :: acc) node.next
  in
  walk [] t.head
