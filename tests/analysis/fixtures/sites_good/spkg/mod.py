"""Declared + bound + tested fault site.
Must produce zero fault-site findings."""


def table(FaultSite):
    return (FaultSite("disk.write_ok", "one page written"),)


def bind(fault_site):
    return fault_site("disk.write_ok")
