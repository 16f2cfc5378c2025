module SMap = Map.Make (String)

type 'a t = { items : 'a list; map : 'a SMap.t }

let empty = { items = []; map = SMap.empty }

let of_list (name : 'a -> string) (items : 'a list) : 'a t =
  let map =
    List.fold_left
      (fun map x -> SMap.update (name x) (function None -> Some x | old -> old) map)
      SMap.empty items
  in
  { items; map }

let names l = of_list Fun.id l
let mem t k = SMap.mem k t.map
let find_opt t k = SMap.find_opt k t.map
let find t k = SMap.find k t.map
let to_list t = t.items
