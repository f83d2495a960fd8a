"""One deliberate violation per fault-site check: dynamic site name,
undeclared binding, declared-but-unbound row, declared-but-untested row."""


def table(FaultSite, dynamic_name):
    return (
        FaultSite("disk.never_tested", "bound but untested"),
        FaultSite("disk.never_bound", "tested but bound by no module"),
        FaultSite(dynamic_name, "dynamic"),
    )


def bind(fault_site):
    return fault_site("disk.never_tested"), fault_site("disk.unregistered")
