// openqs — Open MPI point-to-point over Quadrics/Elan4, reproduced in
// simulation. Umbrella header for the public API.
//
// Layers (bottom-up):
//   oqs::sim       discrete-event engine, fibers, CPU model
//   oqs::net       QsNetII fabric + management Ethernet
//   oqs::elan4     Elan4 NIC: QDMA, RDMA, chained events, MMU, capability
//   oqs::rte       run-time environment: OOB, registry, launch, spawn
//   oqs::dtype     MPI datatype engine (pack/unpack convertor)
//   oqs::pml       point-to-point management layer + PTL interface
//   oqs::ptl_elan4 the paper's PTL over Elan4
//   oqs::ptl_tcp   the reference TCP PTL
//   oqs::mpi       public MPI-2-style API (World/Communicator/Request)
//   oqs::tport     Quadrics Tport (NIC tag matching)
//   oqs::mpich     MPICH-QsNetII baseline on Tport
#pragma once

#include "base/params.h"
#include "base/status.h"
#include "dtype/datatype.h"
#include "elan4/device.h"
#include "elan4/qsnet.h"
#include "mpi/mpi.h"
#include "mpi/window.h"
#include "mpich/mpich.h"
#include "pml/pml.h"
#include "ptl/elan4/ptl_elan4.h"
#include "ptl/tcp/ptl_tcp.h"
#include "rte/runtime.h"
#include "sim/engine.h"
#include "tport/tport.h"
