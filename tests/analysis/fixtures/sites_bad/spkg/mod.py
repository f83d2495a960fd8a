"""One deliberate violation per fault-site check: dynamic site name,
unregistered fault_point, registered-but-untested site."""


def install(register_fault_site, dynamic_name):
    register_fault_site("disk.never_tested", "registered but untested")
    register_fault_site(dynamic_name, "dynamic")


def hot_path(fault_point):
    fault_point("disk.unregistered")
