let ensure () =
  Ext_list.register ();
  Ext_contrep.register ()
