let check_multiple name data =
  if Bytes.length data mod Aes.block_size <> 0 then
    invalid_arg (name ^ ": length must be a multiple of 16")

let ecb_encrypt key data =
  check_multiple "Modes.ecb_encrypt" data;
  let n = Bytes.length data in
  let out = Bytes.create n in
  Aes.blocks_into key ~encrypt:true ~src:data ~src_off:0 ~dst:out ~dst_off:0
    ~nblocks:(n / Aes.block_size);
  out

let ecb_decrypt key data =
  check_multiple "Modes.ecb_decrypt" data;
  let n = Bytes.length data in
  let out = Bytes.create n in
  Aes.blocks_into key ~encrypt:false ~src:data ~src_off:0 ~dst:out ~dst_off:0
    ~nblocks:(n / Aes.block_size);
  out

let ctr_transform key ~nonce data =
  let out = Bytes.create (Bytes.length data) in
  Aes.ctr_into key ~nonce ~src:data ~dst:out ~len:(Bytes.length data);
  out

let check_span name len =
  if len mod 16 <> 0 then invalid_arg (name ^ ": len must be a multiple of 16")

(* The tweak mask for block i is AES_k(tweak0 + i * tweak_step): a cheap XEX
   variant whose only required property here is that the mask depends on the
   position, which defeats ciphertext relocation. [tweak_step] lets a single
   span call reproduce what used to be a per-block loop with per-block tweaks
   (the memory controller steps the tweak by the physical block address).
   Tweak generation, whitening, the block cipher and re-whitening all happen
   inside one [Aes.xex_span_into] call per span. *)

let xex_encrypt_span key ~tweak0 ~tweak_step ~src ~src_off ~dst ~dst_off ~len =
  check_span "Modes.xex_encrypt_into" len;
  Aes.xex_span_into key ~encrypt:true ~tweak0 ~tweak_step ~src ~src_off ~dst
    ~dst_off ~len

let xex_decrypt_span key ~tweak0 ~tweak_step ~src ~src_off ~dst ~dst_off ~len =
  check_span "Modes.xex_decrypt_into" len;
  Aes.xex_span_into key ~encrypt:false ~tweak0 ~tweak_step ~src ~src_off ~dst
    ~dst_off ~len

let check_sectors name sector_bytes nsectors =
  if sector_bytes <= 0 || sector_bytes mod 16 <> 0 then
    invalid_arg (name ^ ": sector_bytes must be a positive multiple of 16");
  if nsectors < 0 then invalid_arg (name ^ ": nsectors must be >= 0")

let xex_encrypt_sectors key ~tweak0 ~sector_stride ~sector_bytes ~src ~src_off ~dst ~dst_off
    ~nsectors =
  check_sectors "Modes.xex_encrypt_sectors" sector_bytes nsectors;
  Aes.xex_sectors_into key ~encrypt:true ~tweak0 ~sector_stride ~sector_bytes ~src ~src_off
    ~dst ~dst_off ~nsectors

let xex_decrypt_sectors key ~tweak0 ~sector_stride ~sector_bytes ~src ~src_off ~dst ~dst_off
    ~nsectors =
  check_sectors "Modes.xex_decrypt_sectors" sector_bytes nsectors;
  Aes.xex_sectors_into key ~encrypt:false ~tweak0 ~sector_stride ~sector_bytes ~src ~src_off
    ~dst ~dst_off ~nsectors

let xex_encrypt_into key ~tweak ~src ~src_off ~dst ~dst_off ~len =
  xex_encrypt_span key ~tweak0:tweak ~tweak_step:1L ~src ~src_off ~dst ~dst_off ~len

let xex_decrypt_into key ~tweak ~src ~src_off ~dst ~dst_off ~len =
  xex_decrypt_span key ~tweak0:tweak ~tweak_step:1L ~src ~src_off ~dst ~dst_off ~len

let xex_encrypt key ~tweak data =
  check_multiple "Modes.xex_encrypt" data;
  let out = Bytes.create (Bytes.length data) in
  xex_encrypt_into key ~tweak ~src:data ~src_off:0 ~dst:out ~dst_off:0 ~len:(Bytes.length data);
  out

let xex_decrypt key ~tweak data =
  check_multiple "Modes.xex_decrypt" data;
  let out = Bytes.create (Bytes.length data) in
  xex_decrypt_into key ~tweak ~src:data ~src_off:0 ~dst:out ~dst_off:0 ~len:(Bytes.length data);
  out

let cbc_mac key data =
  let n = Bytes.length data in
  (* Zero-padding a copy is equivalent to only XORing the bytes that exist,
     so the accumulator is updated straight from [data] — no padded copy. *)
  let nblocks = if n = 0 then 1 else (n + 15) / 16 in
  let acc = Bytes.make 16 '\000' in
  for blk = 0 to nblocks - 1 do
    let base = blk * 16 in
    let len = min 16 (n - base) in
    for j = 0 to len - 1 do
      let c = Char.code (Bytes.get acc j) lxor Char.code (Bytes.get data (base + j)) in
      Bytes.set acc j (Char.chr c)
    done;
    Aes.encrypt_block_into key ~src:acc ~src_off:0 ~dst:acc ~dst_off:0
  done;
  acc
