include Engine

let sc_create = Sc.create
let sc_mem_add = Sc.mem_add
let sc_fd_add = Sc.fd_add
let sc_sel_context = Sc.sel_context
let sc_set_uid = Sc.set_uid
let sc_set_root = Sc.set_root
let sc_gate_grant = Sc.gate_grant
let sc_set_rlimit = Sc.set_rlimit

module Pool = Pool
