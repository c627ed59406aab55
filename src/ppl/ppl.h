// Umbrella header for the probabilistic-programming core.
#pragma once

#include "ppl/diag.h"
#include "ppl/handlers.h"
#include "ppl/messenger.h"
#include "ppl/param_store.h"
#include "ppl/trace.h"
