"""Repository tooling that is not part of the ``repro`` package proper.

Importable (``tools.check_report``) so the test suite can exercise the
same comparison logic the scripts run.
"""
