"""The pipeline benchmark: workloads, span recorder and run comparison."""
