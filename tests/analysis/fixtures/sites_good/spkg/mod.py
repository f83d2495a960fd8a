"""Registered + used + tested fault site.
Must produce zero fault-site findings."""


def install(register_fault_site):
    register_fault_site("disk.write_ok", "one page written")


def hot_path(fault_point):
    fault_point("disk.write_ok")
