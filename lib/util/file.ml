let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error (if String.starts_with ~prefix:path e then e else path ^ ": " ^ e)
  | src -> Ok src
