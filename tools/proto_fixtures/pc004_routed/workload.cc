// dash-proto-fixture-as: src/fake/workload.cc
// A workload entry in a file of its own, reaching the wrapper through a
// free helper; it makes no wire calls itself.
struct Status {
  bool ok;
};
struct Net;
Status RunWithAbort(Net* net);

Status Prepare(Net* net) {
  return RunWithAbort(net);
}

Status RunWorkload(Net* net) {
  return Prepare(net);
}
