"""Make the benchmark's modules and the repository source importable."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(PERFBENCH), "src"))
sys.path.insert(0, PERFBENCH)
