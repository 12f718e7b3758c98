#pragma once
// Umbrella header: the public surface of the layout-flow library in one
// include. Pulls in everything a flow driver needs —
//
//   circuits/flow.hpp     FlowEngine::run(FlowMode), FlowOptions, FlowReport
//   circuits/batch.hpp    BatchRunner, FlowJob, BatchReport (many flow
//                         jobs over one pool + shared eval cache)
//   circuits/*            the paper's example circuits (5T OTA, StrongARM
//                         comparator, ring VCO) and common instance types
//   core/optimizer.hpp    Algorithm 1 (PrimitiveOptimizer) and its
//                         evaluator, for primitive-level use
//   core/eval_cache.hpp   cross-run evaluation memoization
//   pcell/*               primitive netlists and the layout generator
//   util/budget.hpp       deadline, testbench and check budgets
//   util/obs.hpp          observability registry, spans, counters
//   util/trace_export.hpp telemetry JSON/Chrome-trace export
//   util/env.hpp          OLP_* environment override catalog
//   util/jsonl.hpp        JSON escaping and well-formedness checks
//   tech/technology.hpp   the FinFET technology description
//
// Subsystem headers remain individually includable; this header is the
// stable starting point (see the README quickstart).

#include "circuits/batch.hpp"
#include "circuits/common.hpp"
#include "circuits/flow.hpp"
#include "circuits/ota5t.hpp"
#include "circuits/strongarm.hpp"
#include "circuits/vco.hpp"
#include "core/eval_cache.hpp"
#include "core/optimizer.hpp"
#include "pcell/generator.hpp"
#include "pcell/primitive.hpp"
#include "tech/technology.hpp"
#include "util/budget.hpp"
#include "util/env.hpp"
#include "util/jsonl.hpp"
#include "util/logging.hpp"
#include "util/obs.hpp"
#include "util/table.hpp"
#include "util/task_pool.hpp"
#include "util/trace_export.hpp"
